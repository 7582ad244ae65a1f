package faults

import (
	"context"
	"fmt"
	"time"

	"rfd/bgp"
)

// WatchdogConfig tunes the convergence watchdog. The zero value picks sane
// defaults.
type WatchdogConfig struct {
	// Grace is the idle gap required before the network is declared
	// quiescent and consistency-checked: no deliveries in flight, no
	// MRAI-held announcements, and no queued event within Grace of the
	// clock. Default 5 s.
	Grace time.Duration
	// MaxEvents bounds the events the watchdog will step before declaring a
	// livelock. Default 20,000,000.
	MaxEvents uint64
	// Recent is the size of the recent-event ring kept for the livelock /
	// divergence diagnosis. Default 32.
	Recent int
}

func (c WatchdogConfig) withDefaults() WatchdogConfig {
	if c.Grace <= 0 {
		c.Grace = 5 * time.Second
	}
	if c.MaxEvents == 0 {
		c.MaxEvents = 20_000_000
	}
	if c.Recent <= 0 {
		c.Recent = 32
	}
	return c
}

// Outcome classifies how a watched run ended.
type Outcome int

const (
	// Converged: the event queue drained and the final consistency check
	// passed.
	Converged Outcome = iota + 1
	// Diverged: a consistency check at a quiescent instant (or the final
	// one) failed. With lossy impairment this is expected — a dropped
	// update is never retransmitted, so RIB-OUT and RIB-IN disagree until
	// the session next resets. The run still drains fully.
	Diverged
	// Livelock: the event budget was exhausted before the queue drained —
	// almost always a scheduling loop. The run is aborted at that point.
	Livelock
	// Aborted: the supervising context was cancelled or passed its
	// deadline before the queue drained. Unlike Livelock this says
	// nothing about the simulation's health — the caller stopped waiting.
	Aborted
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Converged:
		return "converged"
	case Diverged:
		return "diverged"
	case Livelock:
		return "livelock"
	case Aborted:
		return "aborted"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// TraceEntry is one recent kernel event, kept for diagnosis.
type TraceEntry struct {
	At   time.Duration
	Name string
}

// Report is what the watchdog observed.
type Report struct {
	// Outcome classifies the run; Err carries the first consistency
	// violation (Diverged) or the budget detail (Livelock), nil otherwise.
	Outcome Outcome
	Err     error
	// DivergedAt is the quiescent instant the first violation was seen.
	DivergedAt time.Duration
	// QuiescentAt is the first instant the network was declared quiescent
	// (zero if it never was before the run ended).
	QuiescentAt time.Duration
	// Events is how many kernel events the watchdog stepped; Checks how
	// many consistency checks it ran. An MRAI interval that no
	// announcement waits for is a reserved mark, not an event (see
	// sim.Kernel.Reserve): it is not stepped, and it does not interrupt a
	// quiet gap, so the watchdog finds quiescent instants sooner and checks
	// more of them than if every interval end were queued.
	Events uint64
	Checks int
	// Recent holds the last events before the run stopped, oldest first —
	// the bounded-event diagnosis for livelock and divergence reports.
	Recent []TraceEntry
}

// String renders a one-line summary.
func (r *Report) String() string {
	s := fmt.Sprintf("%s after %d events (%d consistency checks)", r.Outcome, r.Events, r.Checks)
	if r.Err != nil {
		s += ": " + r.Err.Error()
	}
	return s
}

// Watch drives the network's kernel to completion under supervision: it
// steps events, and whenever the network is quiescent — nothing in flight,
// no MRAI-held announcements, and the next queued event at least Grace away
// — it runs Network.CheckConsistency (once per quiescent episode). The
// first violation marks the run Diverged but does not stop it; exhausting
// the event budget aborts it as a Livelock, with the most recent events
// attached as diagnosis. Experiments use Watch in place of a fixed event
// horizon: a healthy run terminates when the queue drains, a sick one is
// diagnosed instead of burning the kernel's whole event limit.
func Watch(n *bgp.Network, cfg WatchdogConfig) *Report {
	return WatchContext(context.Background(), n, cfg)
}

// wallCheckInterval is how many events WatchContext steps between polls of
// the context — frequent enough that a cancel or a deadline lands within
// microseconds, rare enough that the poll cost disappears.
const wallCheckInterval = 1024

// WatchContext is Watch under a supervising context, polled every
// wallCheckInterval events: a cancel or a passed deadline (the wall-clock
// bound for runs that are merely pathologically slow) aborts the run with
// Outcome Aborted, the cause on Report.Err and the recent-event ring
// attached. The network is left exactly as the last fired event left it, so
// a caller can inspect partial state.
func WatchContext(ctx context.Context, n *bgp.Network, cfg WatchdogConfig) *Report {
	cfg = cfg.withDefaults()
	k := n.Kernel()
	rep := &Report{}

	// Chain onto any existing trace observer to keep the diagnosis ring.
	ring := make([]TraceEntry, 0, cfg.Recent)
	next := 0
	prev := k.Trace()
	k.SetTrace(func(at time.Duration, name string) {
		if len(ring) < cfg.Recent {
			ring = append(ring, TraceEntry{At: at, Name: name})
		} else {
			ring[next] = TraceEntry{At: at, Name: name}
			next = (next + 1) % cfg.Recent
		}
		if prev != nil {
			prev(at, name)
		}
	})
	defer k.SetTrace(prev)

	checkedEpisode := false
	lastDelivered := n.Delivered()
	nextPoll := rep.Events // poll on entry, then every wallCheckInterval
	for {
		headAt, ok := k.NextEventTime()
		if !ok {
			break
		}
		if n.Quiescent() {
			if delivered := n.Delivered(); delivered != lastDelivered {
				lastDelivered = delivered
				checkedEpisode = false
			}
			if !checkedEpisode && headAt-k.Now() >= cfg.Grace && n.PendingAnnouncements() == 0 {
				if rep.QuiescentAt == 0 {
					rep.QuiescentAt = k.Now()
				}
				rep.Checks++
				checkedEpisode = true
				if err := n.CheckConsistency(); err != nil && rep.Err == nil {
					rep.Outcome = Diverged
					rep.Err = err
					rep.DivergedAt = k.Now()
				}
			}
		}
		if rep.Events >= cfg.MaxEvents {
			rep.Outcome = Livelock
			rep.Err = fmt.Errorf("faults: watchdog event budget exhausted (%d events, now %v)", rep.Events, k.Now())
			rep.Recent = ringSlice(ring, next)
			return rep
		}
		if rep.Events >= nextPoll {
			nextPoll = rep.Events + wallCheckInterval
			if err := ctx.Err(); err != nil {
				rep.Outcome = Aborted
				rep.Err = fmt.Errorf("faults: watchdog aborted (%d events, now %v): %w", rep.Events, k.Now(), context.Cause(ctx))
				rep.Recent = ringSlice(ring, next)
				return rep
			}
		}
		k.Step()
		rep.Events++
	}

	// Queue drained: the network is quiescent by construction. Settle the
	// clock where a Run drain would leave it, then run the final
	// consistency check.
	k.Settle()
	rep.Checks++
	if err := n.CheckConsistency(); err != nil && rep.Err == nil {
		rep.Outcome = Diverged
		rep.Err = err
		rep.DivergedAt = k.Now()
	}
	if rep.Outcome == 0 {
		rep.Outcome = Converged
	}
	if rep.Outcome != Converged {
		rep.Recent = ringSlice(ring, next)
	}
	return rep
}

// ringSlice linearizes the diagnosis ring, oldest entry first.
func ringSlice(ring []TraceEntry, next int) []TraceEntry {
	out := make([]TraceEntry, 0, len(ring))
	out = append(out, ring[next:]...)
	out = append(out, ring[:next]...)
	return out
}
