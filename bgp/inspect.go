package bgp

import (
	"time"

	"rfd/damping"
	"rfd/sim"
)

// This file is the read-only inspection surface the runtime invariant checker
// (package check) walks on every event. The views copy scalar state out of
// the network's flat RIBs; paths are the engine's canonical slices, read by id
// without a copy, and must not be mutated. Iteration order is deterministic:
// ascending peer slot (= peer id) and prefix id.

// RIBInView is a snapshot of one adj-RIB-in entry.
type RIBInView struct {
	Peer   RouterID
	Prefix Prefix
	// Path is the last announced route, nil when withdrawn.
	Path        Path
	EverPresent bool
	// HasDamping reports whether this entry carries damping state; Penalty
	// and Suppressed are zero/false without it.
	HasDamping bool
	Penalty    float64
	Suppressed bool
	// ReuseAt is when the entry's suppression will next be reconsidered:
	// the per-entry reuse timer's firing instant, sim.Never when none is
	// pending.
	ReuseAt time.Duration
}

// RIBOutView is a snapshot of one adj-RIB-out entry.
type RIBOutView struct {
	Peer       RouterID
	Prefix     Prefix
	Advertised Path
	// Pending reports an announcement held back by MRAI; PendingPath is what
	// it would advertise.
	Pending     bool
	PendingPath Path
	// MRAIAt is when the running MRAI interval ends, sim.Never when none is
	// running.
	MRAIAt time.Duration
}

// LocalView is a snapshot of one Local-RIB entry.
type LocalView struct {
	Prefix   Prefix
	HasRoute bool
	// SelfOriginated marks locally originated routes (BestPeer is then
	// meaningless and BestPath nil).
	SelfOriginated bool
	BestPeer       RouterID
	BestPath       Path
}

// EachRIBIn calls fn for every live RIB-IN entry, in (peer slot, prefix id)
// order. Penalties are decayed to the given instant.
func (r *Router) EachRIBIn(now time.Duration, fn func(RIBInView)) {
	for s, peer := range r.peers {
		for pid, prefix := range r.net.prefixes {
			e := r.ribIn(int32(s), int32(pid))
			if !e.seen {
				continue
			}
			v := RIBInView{
				Peer:        peer,
				Prefix:      prefix,
				Path:        r.net.paths.path(e.path),
				EverPresent: e.everPresent,
				ReuseAt:     e.reuseTimer.When(),
			}
			if r.damp != nil {
				v.HasDamping = true
				v.Penalty = e.damp.Penalty(now)
				v.Suppressed = e.damp.Suppressed()
			}
			fn(v)
		}
	}
}

// EachRIBOut calls fn for every live RIB-OUT entry, in (peer slot, prefix id)
// order.
func (r *Router) EachRIBOut(fn func(RIBOutView)) {
	for s, peer := range r.peers {
		for pid, prefix := range r.net.prefixes {
			e := r.ribOut(int32(s), int32(pid))
			if !e.seen {
				continue
			}
			fn(RIBOutView{
				Peer:        peer,
				Prefix:      prefix,
				Advertised:  r.net.paths.path(e.advertised),
				Pending:     e.pending,
				PendingPath: r.net.paths.path(e.pendingPath),
				MRAIAt:      r.mraiEnd(e),
			})
		}
	}
}

// mraiEnd returns when e's MRAI interval ends, sim.Never when none is
// running.
func (r *Router) mraiEnd(e *ribOutEntry) time.Duration {
	if !r.net.kernel.Ahead(e.mrai) {
		return sim.Never
	}
	return e.mrai.At()
}

// EachLocal calls fn for every live Local-RIB entry, in prefix id order.
// Prefixes the router originates but has no Local-RIB slot for yet are not
// reported (they gain one on the first reconcile).
func (r *Router) EachLocal(fn func(LocalView)) {
	for pid, prefix := range r.net.prefixes {
		e := r.local(int32(pid))
		if !e.seen {
			continue
		}
		fn(LocalView{
			Prefix:         prefix,
			HasRoute:       e.hasRoute,
			SelfOriginated: e.hasRoute && e.bestPeer == selfPeer,
			BestPeer:       e.bestPeer,
			BestPath:       r.net.paths.path(e.bestPath),
		})
	}
}

// DampingParams returns the router's damping parameters and whether damping
// is enabled here.
func (r *Router) DampingParams() (damping.Params, bool) {
	if r.damp == nil {
		return damping.Params{}, false
	}
	return *r.damp, true
}

// DebugDampingState returns the live damping state for (peer, prefix), nil
// when none exists. It is a deliberate back door for
// fault-seeding tests of the invariant checker: mutating the returned state
// desynchronizes the engine from its own bookkeeping, which is exactly what
// such a test wants to provoke. Engine and experiment code must not use it.
func (r *Router) DebugDampingState(peer RouterID, prefix Prefix) *damping.State {
	pid, ok := r.net.lookupPrefix(prefix)
	if !ok {
		return nil
	}
	e := r.ribInAt(r.slotOf(peer), pid)
	if e == nil || r.damp == nil {
		return nil
	}
	return &e.damp
}
