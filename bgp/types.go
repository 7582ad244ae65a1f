// Package bgp implements the path-vector routing engine the experiments run:
// BGP-4 semantics as the paper's SSFNet simulations rely on them — RIB-IN /
// Local-RIB / RIB-OUT per router (Figure 2 of the paper), a deterministic
// decision process, per-peer MRAI rate limiting, AS-path loop prevention,
// export policies (shortest-path and no-valley), and per-peer route flap
// damping with optional RCN-enhanced penalty filtering.
//
// A network routes one prefix, as the paper's simulations flap one prefix
// from one originAS (Section 5.1): the first Originate names it, and
// originating another panics.
//
// The engine runs on the sim kernel: routers are plain structs, links are
// FIFO channels with fixed propagation delay, and all processing is
// event-driven and deterministic.
package bgp

import (
	"fmt"
	"strconv"

	"rfd/rcn"
	"rfd/topology"
)

// RouterID identifies a router (an AS — the model is one router per AS, as
// in the paper's simulations). It equals the node's topology.NodeID.
type RouterID = topology.NodeID

// Prefix names a destination. A network routes one: messages, hooks, views
// and traces carry its name.
type Prefix string

// Path is an AS path: Path[0] is the router that advertised the route (the
// receiving router's peer) and Path[len-1] is the origin.
type Path []RouterID

// Clone returns an independent copy of the path.
func (p Path) Clone() Path {
	if p == nil {
		return nil
	}
	out := make(Path, len(p))
	copy(out, p)
	return out
}

// Contains reports whether the path traverses id (loop detection).
func (p Path) Contains(id RouterID) bool {
	for _, hop := range p {
		if hop == id {
			return true
		}
	}
	return false
}

// Equal reports element-wise equality. Paths sharing a backing array — the
// common case inside the engine, where every path is interned per network —
// compare with a single pointer check.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	if len(p) == 0 || &p[0] == &q[0] {
		return true
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// String renders the path like "3 7 12".
func (p Path) String() string {
	if len(p) == 0 {
		return "<empty>"
	}
	buf := make([]byte, 0, 4*len(p))
	for i, hop := range p {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = strconv.AppendInt(buf, int64(hop), 10)
	}
	return string(buf)
}

// Message is one BGP update: an announcement (Path non-nil) or a withdrawal
// (Withdraw true, Path nil) for one prefix, optionally carrying a root cause.
type Message struct {
	// From and To are the sending and receiving routers.
	From, To RouterID
	// Prefix is the destination the update concerns.
	Prefix Prefix
	// Withdraw marks the update as a withdrawal.
	Withdraw bool
	// Path is the advertised AS path (announcements only). Path[0] == From.
	// Inside the engine every message path is interned in the network's
	// shared table and therefore immutable: observers (hooks, traces) must
	// not modify it, and should Clone before retaining a mutable copy.
	Path Path
	// Cause is the attached root cause; zero when RCN is disabled or the
	// update has no known cause.
	Cause rcn.Cause
}

// String renders the message for traces.
func (m Message) String() string {
	if m.Withdraw {
		return fmt.Sprintf("W %d->%d %s cause=%s", m.From, m.To, m.Prefix, m.Cause)
	}
	return fmt.Sprintf("A %d->%d %s path=[%s] cause=%s", m.From, m.To, m.Prefix, m.Path, m.Cause)
}
