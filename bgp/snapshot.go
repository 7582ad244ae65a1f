package bgp

// This file implements deterministic snapshot/fork of a running network.
//
// A fork copies everything mutable — the kernel's event queue, the flat
// RIB-IN/RIB-OUT/Local-RIB/origination slices with their damping records
// inline, the router slab with each router's RNG inline, link/session arrays,
// the in-flight message slab — as a handful of slice copies, then makes one
// pass over the routers to point each at the fork. The RIB entries are
// copied as they are: they hold no pointer. Nothing is copied object by
// object, so a fork's cost is a few memmoves and a few dozen allocations
// whatever the network's size (RCN histories, one short ring slice per
// session, are the exception: they clone one by one).
// Immutable structure is shared: the topology graph, the CSR tables and
// every path id numbered so far with its canonical path, which the parent's
// table freezes at the fork (pathTable.fork). The RIB entries copied by value
// hold ids, so they mean the same paths in the fork.
//
// The intended use is the experiment layer's warm-up amortization and pulse
// sweeps: converge once and fork the converged checkpoint per sweep, then
// fork one flap trajectory at every pulse count. Because queue clones preserve
// slot indices and generations, the Timer handles embedded in RIB entries
// (a pending MRAI expiry, damping reuse) name the same events on the forked
// kernel; MRAI interval ends are sim.Marks, plain values that mean the same
// there too.
//
// Pending events cross a fork whoever scheduled them, as long as their kind's
// handler can be rebound: the network's own handlers are, and so is any
// foreign one that implements HandlerForker (package faults' fault plans do).
// The queued events themselves hold only a kind and an arg, so the queue is
// copied as it is and the rebinding is one pass over a handful of kinds.
// Observation hooks deliberately do not cross: forks start unobserved, since
// measurement apparatus is per-run, not simulation state.

import (
	"fmt"
	"slices"

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
// When the kernel has an event kind of such a handler at a fork, ForkHandler
// returns the handler that acts on the forked network f instead, and every
// kind of the original handler — with every event of those kinds — is
// rebound to it: it is called once per handler, however many kinds name it.
// A kind whose handler neither belongs to the network nor implements this
// cannot be forked, even once its events have fired.
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

// Snapshot captures the network and its kernel at the current instant. The
// network is unaffected and may continue running. It returns an error when
// the state cannot be forked: an event kind whose handler cannot be rebound
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

// fork builds the deep copy onto a fork of n's kernel (queue clones preserve
// slot indices and generations, so the Timer handles embedded in RIB entries
// name the right events). Concurrent forks of the same receiver are safe:
// they read the receiver, apart from freezing its path-table overlay, which
// they serialize (pathTable.fork). Running the receiver concurrently with
// forking it is not. A shard network does not fork: its cross-shard sends
// go to its ensemble's outbox, which the copy would not have.
func (n *Network) fork() (*Network, error) {
	if n.owner != nil {
		return nil, fmt.Errorf("bgp: shard %d of a sharded network cannot fork", n.shardID)
	}
	var impair LinkImpairment
	if n.impair != nil {
		forker, ok := n.impair.(ImpairmentForker)
		if !ok {
			return nil, fmt.Errorf("bgp: impairment model %T cannot be forked (does not implement ImpairmentForker)", n.impair)
		}
		impair = forker.ForkImpairment()
	}
	k2 := n.kernel.Fork()
	f := &Network{
		kernel:            k2,
		graph:             n.graph, // never mutated after construction
		cfg:               n.cfg,
		nn:                n.nn,
		adjStart:          n.adjStart, // CSR adjacency and delays are
		adjNbr:            n.adjNbr,   // immutable after construction —
		adjEdge:           n.adjEdge,  // shared, not copied
		adjRev:            n.adjRev,
		adjOwner:          n.adjOwner,
		linkDelay:         n.linkDelay,
		lastArrival:       slices.Clone(n.lastArrival),
		downLinks:         slices.Clone(n.downLinks),
		sessionGen:        slices.Clone(n.sessionGen),
		downRouters:       slices.Clone(n.downRouters),
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
		prefix:            n.prefix,
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
	f.deliverKind, f.mraiKind, f.reuseKind = n.deliverKind, n.mraiKind, n.reuseKind
	k2.SetMarks(f.latestMark)
	for id := range f.routers {
		f.routers[id].net = f
	}
	if n.history != nil {
		f.history = make([]*rcn.History, len(n.history))
		for d, h := range n.history {
			if h != nil {
				f.history[d] = h.Clone()
			}
		}
	}
	// The forked kernel's event kinds still name the original's handler
	// values; rebind them to the fork's. RemapHandlers asks once per handler,
	// so a foreign handler's kinds all share one copy.
	if err := k2.RemapHandlers(func(h sim.Handler) sim.Handler {
		switch h {
		case &n.deliverH:
			return &f.deliverH
		case &n.mraiH:
			return &f.mraiH
		case &n.reuseH:
			return &f.reuseH
		}
		if forker, ok := h.(HandlerForker); ok {
			return forker.ForkHandler(f)
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("bgp: fork: %w", err)
	}
	return f, nil
}
