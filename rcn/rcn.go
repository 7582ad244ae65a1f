// Package rcn implements Root Cause Notification (RCN) as used by the paper's
// RCN-enhanced damping (Section 6).
//
// A root cause identifies the link status change that ultimately triggered a
// routing update: RC = {[u v], status, seq}. The node adjacent to a flapping
// link stamps every update it originates with a fresh root cause; every
// router that changes its best path because of a received update copies the
// root cause from the incoming update into its own outgoing updates. All the
// path-exploration (and route-reuse) updates descending from one physical
// flap therefore carry the same root cause.
//
// RCN-enhanced damping keeps, per peer, a bounded history of root causes
// already seen and charges the damping penalty only for updates whose root
// cause is new (History.Witness). Updates still flow to the routing decision
// unconditionally — RCN filters penalties, not routes.
package rcn

import (
	"fmt"
	"slices"
)

// Status is the reported state of the root-cause link.
type Status int

const (
	// LinkDown indicates the root cause was a link failure.
	LinkDown Status = iota + 1
	// LinkUp indicates the root cause was a link recovery.
	LinkUp
)

// String returns "down" or "up".
func (s Status) String() string {
	switch s {
	case LinkDown:
		return "down"
	case LinkUp:
		return "up"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Cause is a root cause: the identity of one link status change. The zero
// value means "no root cause attached" (e.g. RCN disabled); IsZero reports
// that. Cause is comparable.
type Cause struct {
	// U, V are the endpoints of the root-cause link; U is the detecting
	// node.
	U, V int
	// Status is the new link state.
	Status Status
	// Seq orders the status changes of one link. Valid causes have Seq >= 1.
	Seq uint64
}

// IsZero reports whether no root cause is attached.
func (c Cause) IsZero() bool { return c == Cause{} }

// String renders the cause in the paper's notation, e.g.
// "{[3 17], down, 5}".
func (c Cause) String() string {
	if c.IsZero() {
		return "{none}"
	}
	return fmt.Sprintf("{[%d %d], %s, %d}", c.U, c.V, c.Status, c.Seq)
}

// Sequencer hands out consecutive sequence numbers for one link's status
// changes. The zero value is ready to use; the first cause gets Seq 1.
type Sequencer struct {
	seq uint64
}

// Next returns the cause for the given link status change, advancing the
// sequence.
func (s *Sequencer) Next(u, v int, status Status) Cause {
	s.seq++
	return Cause{U: u, V: v, Status: status, Seq: s.seq}
}

// DefaultHistorySize is the per-peer root-cause history capacity used when a
// History is constructed with a non-positive size. A flap event generates
// exactly two causes (down, up), so even aggressive flapping stays far below
// this bound; it exists to bound memory in a long-lived daemon.
const DefaultHistorySize = 1024

// History is a bounded FIFO set of root causes seen from one peer, kept as a
// ring of causes in arrival order: a session witnesses two causes per flap,
// so a history stays short, and a scan of it is cheaper than any index.
// The zero value is unusable; construct with NewHistory. History is not safe
// for concurrent use.
type History struct {
	capacity int
	causes   []Cause // grows to capacity, then wraps
	head     int     // index of the oldest cause once causes is full
}

// NewHistory returns a history that remembers up to capacity causes
// (DefaultHistorySize if capacity <= 0). Storage grows with the causes
// witnessed, not with the bound: a network builds one history per session,
// and a flap leaves two causes in each.
func NewHistory(capacity int) *History {
	if capacity <= 0 {
		capacity = DefaultHistorySize
	}
	return &History{capacity: capacity}
}

// Len returns the number of causes currently remembered.
func (h *History) Len() int { return len(h.causes) }

// Clone returns an independent copy of the history: same capacity, same
// remembered causes, same eviction order, sharing no storage with the
// original. Used by the simulator's network fork.
func (h *History) Clone() *History {
	c := *h
	c.causes = slices.Clone(h.causes)
	return &c
}

// Witness records the cause and reports whether it was NEW — i.e. whether an
// RCN-enhanced damping implementation should apply a penalty increment for
// the update carrying it (Section 6.2: "If the root cause is already present
// in the history list, this update does not result in any penalty
// increment."). Zero causes are never recorded and always report true, so
// updates without root-cause information charge the penalty exactly as
// classic damping does. A new cause evicts the oldest once the history is
// full.
func (h *History) Witness(c Cause) bool {
	if c.IsZero() {
		return true
	}
	if slices.Contains(h.causes, c) {
		return false
	}
	if len(h.causes) < h.capacity {
		h.causes = append(h.causes, c)
	} else {
		h.causes[h.head] = c
		h.head = (h.head + 1) % h.capacity
	}
	return true
}
