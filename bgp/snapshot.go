package bgp

// This file implements deterministic snapshot/fork of a running network.
//
// A fork copies everything mutable — the kernel's event queue, the flat
// RIB-IN/RIB-OUT/Local-RIB/origination slices with their damping states
// inline, the router slab with each router's RNG inline, link/session arrays,
// the in-flight message slab — as a handful of slice copies, then makes one
// pass that points each router at the fork and rebinds each RIB timer to the
// forked kernel. Nothing is copied object by object, so a fork's cost is a
// few memmoves and a few dozen allocations whatever the network's size (RCN
// histories, per-session maps, are the exception: they clone one by one).
// Immutable structure is shared: the topology graph, the CSR tables, the
// prefix tables (replaced, never written in place) and every path id
// numbered so far with its canonical path, which the parent's table freezes
// at the fork (pathTable.fork). The RIB entries copied by value hold ids, so
// they mean the same paths in the fork.
//
// The intended use is the experiment layer's warm-up amortization and pulse
// sweeps: converge once and fork the converged checkpoint per sweep, then
// fork one flap trajectory at every pulse count. Because queue clones preserve
// slot indices and generations, the Timer handles embedded in RIB entries
// (a pending MRAI expiry, damping reuse) remain valid in the fork after
// Kernel.Adopt rebinds them; MRAI interval ends are sim.Marks, plain values
// that mean the same on the forked kernel.
//
// Pending events cross a fork whoever scheduled them, as long as their handler
// can be rebound: the network's own handlers are, and so is any foreign one
// that implements HandlerForker (package faults' fault plans do). Observation
// hooks deliberately do not cross: forks start unobserved, since measurement
// apparatus is per-run, not simulation state.

import (
	"fmt"
	"slices"
	"time"

	"rfd/rcn"
	"rfd/sim"
)

// ImpairmentForker is implemented by LinkImpairment models that can produce
// an independent copy at the same deterministic stream position (package
// faults' Impairments does). A network with an installed impairment can only
// be forked when the model implements this; otherwise both copies would share
// one RNG stream and neither would reproduce.
type ImpairmentForker interface {
	ForkImpairment() LinkImpairment
}

// HandlerForker is implemented by sim.Handler values outside this package
// that schedule events against a network (package faults' fault plans do).
// When such an event is pending at a fork, ForkHandler returns the handler
// that acts on the forked network f instead, and every pending event of the
// original handler is rebound to it. A pending event whose handler neither
// belongs to the network nor implements this cannot be forked.
type HandlerForker interface {
	ForkHandler(f *Network) sim.Handler
}

// Snapshot is an immutable checkpoint of a network and its kernel, taken with
// Network.Snapshot. It holds a private fork that is never run; Fork stamps
// out any number of independent, runnable copies from it, pending events and
// all. A Snapshot is safe for concurrent Fork calls from multiple goroutines
// — sweep workers each fork their own copy — because forking only reads the
// parked state.
type Snapshot struct {
	parked *Network
}

// Now returns the virtual time the snapshot was taken at.
func (s *Snapshot) Now() time.Duration { return s.parked.kernel.Now() }

// Snapshot captures the network and its kernel at the current instant. The
// network is unaffected and may continue running. It returns an error when
// the state cannot be forked: a pending event whose handler cannot be rebound
// (see HandlerForker) or an installed impairment model that does not
// implement ImpairmentForker.
func (n *Network) Snapshot() (*Snapshot, error) {
	parked, err := n.fork()
	if err != nil {
		return nil, err
	}
	return &Snapshot{parked: parked}, nil
}

// Fork materializes an independent runnable copy of the checkpoint: a fresh
// kernel at the captured virtual time and a fresh network bound to it.
// Every copy starts from the identical state; given identical subsequent
// stimuli they produce identical event sequences. No hooks are installed.
func (s *Snapshot) Fork() (*sim.Kernel, *Network, error) {
	f, err := s.parked.fork()
	if err != nil {
		return nil, nil, err
	}
	return f.kernel, f, nil
}

// Fork returns an independent copy of the network and a fresh kernel driving
// it, leaving the original untouched. Equivalent to Snapshot followed by one
// Snapshot.Fork, without parking an intermediate copy.
func (n *Network) Fork() (*sim.Kernel, *Network, error) {
	f, err := n.fork()
	if err != nil {
		return nil, nil, err
	}
	return f.kernel, f, nil
}

// fork builds the copy. Concurrent forks of the same receiver are safe: they
// read the receiver, apart from freezing its path-table overlay, which they
// serialize (pathTable.fork). Running the receiver concurrently with forking
// it is not.
func (n *Network) fork() (*Network, error) {
	return n.forkOnto(n.kernel.Fork())
}

// forkOnto builds the deep copy onto k2, which must be a fork of n's kernel
// taken at the same instant (queue clones preserve slot indices and
// generations, so the Timer handles embedded in RIB entries adopt cleanly
// only against a true fork). The split exists for the sharded engine:
// ShardedNetwork.Fork forks the whole kernel group first, then forks each
// shard network onto its pre-forked kernel.
func (n *Network) forkOnto(k2 *sim.Kernel) (*Network, error) {
	var impair LinkImpairment
	if n.impair != nil {
		forker, ok := n.impair.(ImpairmentForker)
		if !ok {
			return nil, fmt.Errorf("bgp: impairment model %T cannot be forked (does not implement ImpairmentForker)", n.impair)
		}
		impair = forker.ForkImpairment()
	}
	f := &Network{
		kernel:            k2,
		graph:             n.graph, // never mutated after construction
		cfg:               n.cfg,
		nn:                n.nn,
		adjStart:          n.adjStart, // CSR adjacency and delays are
		adjNbr:            n.adjNbr,   // immutable after construction —
		adjEdge:           n.adjEdge,  // shared, not copied
		adjRev:            n.adjRev,
		linkDelay:         n.linkDelay,
		lastArrival:       slices.Clone(n.lastArrival),
		downLinks:         slices.Clone(n.downLinks),
		sessionGen:        slices.Clone(n.sessionGen),
		downRouters:       slices.Clone(n.downRouters),
		owner:             n.owner, // immutable partition assignment
		shardID:           n.shardID,
		impair:            impair,
		pendingDeliveries: n.pendingDeliveries,
		routers:           slices.Clone(n.routers),
		ribIn:             slices.Clone(n.ribIn),
		ribOut:            slices.Clone(n.ribOut),
		local:             slices.Clone(n.local),
		orig:              slices.Clone(n.orig),
		inCause:           slices.Clone(n.inCause),
		outCause:          slices.Clone(n.outCause),
		linkSeq:           slices.Clone(n.linkSeq),
		origSeq:           slices.Clone(n.origSeq),
		paths:             n.paths.fork(),
		prefixIDs:         n.prefixIDs,   // the prefix tables are
		prefixes:          n.prefixes,    // replaced, never written in
		prefixOrder:       n.prefixOrder, // place (prefixID) — shared
		msgSlab:           slices.Clone(n.msgSlab),
		msgFree:           slices.Clone(n.msgFree),
		delivered:         n.delivered,
		dropped:           n.dropped,
		lastDelivery:      n.lastDelivery,
		// hooks intentionally left zero: forks start unobserved.
	}
	f.deliverH = deliverHandler{n: f}
	f.mraiH = mraiHandler{n: f}
	f.reuseH = reuseHandler{n: f}
	k2.SetMarks(f.latestMark)
	for id := range f.routers {
		f.routers[id].net = f
	}
	for i := range f.ribIn {
		f.ribIn[i].reuseTimer = k2.Adopt(f.ribIn[i].reuseTimer)
	}
	for i := range f.ribOut {
		f.ribOut[i].expiry = k2.Adopt(f.ribOut[i].expiry) // marks copy by value
	}
	if n.history != nil {
		f.history = make([]*rcn.History, len(n.history))
		for d, h := range n.history {
			if h != nil {
				f.history[d] = h.Clone()
			}
		}
	}
	// The cloned queue's pending events still point at the original's handler
	// values; rebind them to the fork's. A foreign handler is forked on first
	// sight and remembered, so all its events share one copy.
	var foreign map[sim.Handler]sim.Handler
	if err := k2.RemapHandlers(func(h sim.Handler) sim.Handler {
		switch h {
		case &n.deliverH:
			return &f.deliverH
		case &n.mraiH:
			return &f.mraiH
		case &n.reuseH:
			return &f.reuseH
		}
		to, ok := foreign[h]
		if !ok {
			if forker, isForker := h.(HandlerForker); isForker {
				to = forker.ForkHandler(f)
				if foreign == nil {
					foreign = make(map[sim.Handler]sim.Handler, 1)
				}
				foreign[h] = to
			}
		}
		return to
	}); err != nil {
		return nil, fmt.Errorf("bgp: fork: %w", err)
	}
	return f, nil
}
