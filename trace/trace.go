// Package trace records simulation events as a structured, bounded log that
// can be streamed as JSON Lines. It backs rfdsim's -trace flag and is handy
// when debugging why a particular (router, peer) pair suppressed a route.
//
// The package is independent of the bgp engine; bgp.TraceHooks adapts a Log
// to the engine's observation hooks.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"time"
)

// Kind labels an event. The values double as the JSON encoding.
type Kind string

// Event kinds recorded by the bgp adapter.
const (
	// KindDeliver is an update message delivery.
	KindDeliver Kind = "deliver"
	// KindSuppress is a damping state turning suppression on.
	KindSuppress Kind = "suppress"
	// KindUnsuppress is a reuse lifting suppression.
	KindUnsuppress Kind = "unsuppress"
	// KindReuse is a reuse-timer outcome (noisy or silent).
	KindReuse Kind = "reuse"
	// KindPenalty is a damping penalty change.
	KindPenalty Kind = "penalty"
)

// Event is one recorded occurrence. Fields that don't apply to a kind are
// left zero and omitted from JSON.
type Event struct {
	// At is the virtual time, encoded in JSON as nanoseconds.
	At time.Duration `json:"at"`
	// Kind labels what happened.
	Kind Kind `json:"kind"`
	// Router is the observing router; Peer the session peer (or the message
	// sender for deliveries).
	Router int `json:"router"`
	Peer   int `json:"peer"`
	// Prefix is the destination concerned.
	Prefix string `json:"prefix,omitempty"`
	// Withdraw marks delivered withdrawals.
	Withdraw bool `json:"withdraw,omitempty"`
	// Path is the delivered AS path, space-separated.
	Path string `json:"path,omitempty"`
	// Penalty is the post-update penalty for KindPenalty events.
	Penalty float64 `json:"penalty,omitempty"`
	// Noisy marks reuse events that changed the Local-RIB.
	Noisy bool `json:"noisy,omitempty"`
	// Cause is the root cause in the paper's notation, when attached.
	Cause string `json:"cause,omitempty"`
}

// String renders the event as one text line.
func (e Event) String() string {
	switch e.Kind {
	case KindDeliver:
		verb := "announce"
		if e.Withdraw {
			verb = "withdraw"
		}
		s := fmt.Sprintf("%12.3fs deliver  %d->%d %s %s", e.At.Seconds(), e.Peer, e.Router, verb, e.Prefix)
		if e.Path != "" {
			s += " path=[" + e.Path + "]"
		}
		if e.Cause != "" {
			s += " cause=" + e.Cause
		}
		return s
	case KindPenalty:
		return fmt.Sprintf("%12.3fs penalty  %d<-%d %s = %.0f", e.At.Seconds(), e.Router, e.Peer, e.Prefix, e.Penalty)
	case KindSuppress, KindUnsuppress:
		return fmt.Sprintf("%12.3fs %s %d<-%d %s", e.At.Seconds(), e.Kind, e.Router, e.Peer, e.Prefix)
	case KindReuse:
		mode := "silent"
		if e.Noisy {
			mode = "noisy"
		}
		return fmt.Sprintf("%12.3fs reuse    %d<-%d %s (%s)", e.At.Seconds(), e.Router, e.Peer, e.Prefix, mode)
	default:
		return fmt.Sprintf("%12.3fs %s router=%d peer=%d %s", e.At.Seconds(), e.Kind, e.Router, e.Peer, e.Prefix)
	}
}

// DefaultCapacity bounds a Log constructed with NewLog(0).
const DefaultCapacity = 1 << 20

// Log is a bounded in-memory event recorder. When full, further events are
// dropped and counted (a trace is a debugging aid; dropping beats unbounded
// memory in hour-long virtual runs). The zero value is unusable; use NewLog.
type Log struct {
	capacity int
	events   []Event
	dropped  int
}

// NewLog returns a log holding up to capacity events (DefaultCapacity if
// capacity <= 0).
func NewLog(capacity int) *Log {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Log{capacity: capacity}
}

// Append records an event, dropping it if the log is full.
func (l *Log) Append(e Event) {
	if len(l.events) >= l.capacity {
		l.dropped++
		return
	}
	l.events = append(l.events, e)
}

// Clone returns an independent copy of the log: same capacity, events and
// drop count.
func (l *Log) Clone() *Log {
	c := *l
	c.events = slices.Clone(l.events)
	return &c
}

// Len returns the number of stored events.
func (l *Log) Len() int { return len(l.events) }

// Dropped returns how many events were discarded because the log was full.
func (l *Log) Dropped() int { return l.dropped }

// Events returns a copy of the stored events in record order.
func (l *Log) Events() []Event {
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

// WriteJSONL streams the events as JSON Lines.
func (l *Log) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range l.events {
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("trace: encode: %w", err)
		}
	}
	return bw.Flush()
}
