package bgp

// This file implements deterministic snapshot/fork of a running network.
//
// A fork is a deep copy of everything mutable — kernel event queue, RIB
// columns, damping states, link/session arrays, interning tables, the
// in-flight message slab, every RNG stream position — wired to fresh handler
// values so the copy and the original evolve independently. Immutable
// structure is shared: the topology graph, the peer tables, and canonical
// interned Path slices (immutable by convention; sharing them keeps
// Path.Equal's pointer fast path working across forks).
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

// fork builds the deep copy. Concurrent forks of the same receiver are safe
// (pure reads of the receiver); running the receiver concurrently with
// forking it is not.
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
		lastArrival:       cloneSlice(n.lastArrival),
		downLinks:         cloneSlice(n.downLinks),
		sessionGen:        cloneSlice(n.sessionGen),
		downRouters:       cloneSlice(n.downRouters),
		owner:             n.owner, // immutable partition assignment
		shardID:           n.shardID,
		impair:            impair,
		pendingDeliveries: n.pendingDeliveries,
		paths:             n.paths.clone(),
		prefixIDs:         make(map[Prefix]int32, len(n.prefixIDs)),
		prefixes:          cloneSlice(n.prefixes),
		msgSlab:           cloneSlice(n.msgSlab),
		msgFree:           cloneSlice(n.msgFree),
		delivered:         n.delivered,
		dropped:           n.dropped,
		lastDelivery:      n.lastDelivery,
		// hooks intentionally left zero: forks start unobserved.
	}
	for p, id := range n.prefixIDs {
		f.prefixIDs[p] = id
	}
	f.deliverH = deliverHandler{n: f}
	k2.SetMarks(f.latestMark)
	f.routers = make([]*Router, n.nn)
	for id, r := range n.routers {
		if r != nil { // shard networks leave unowned routers nil
			f.routers[id] = r.forkInto(f, k2)
		}
	}
	// The cloned queue's pending events still point at the original's handler
	// values; rebind them to the fork's. A foreign handler is forked on first
	// sight and remembered, so all its events share one copy.
	remap := make(map[sim.Handler]sim.Handler, 1+2*len(n.routers))
	remap[&n.deliverH] = &f.deliverH
	for id := range n.routers {
		if n.routers[id] == nil {
			continue
		}
		remap[&n.routers[id].mraiH] = &f.routers[id].mraiH
		remap[&n.routers[id].reuseH] = &f.routers[id].reuseH
	}
	if err := k2.RemapHandlers(func(h sim.Handler) sim.Handler {
		to, ok := remap[h]
		if !ok {
			if forker, foreign := h.(HandlerForker); foreign {
				to = forker.ForkHandler(f)
				remap[h] = to
			}
		}
		return to
	}); err != nil {
		return nil, fmt.Errorf("bgp: fork: %w", err)
	}
	return f, nil
}

// forkInto deep-copies the router into network f, whose kernel k2 adopts the
// router's pending timers. Shared with the original: peers (the CSR row) and
// damp (fixed at construction) and canonical Path slices (immutable).
func (r *Router) forkInto(f *Network, k2 *sim.Kernel) *Router {
	c := &Router{
		id:         r.id,
		net:        f,
		rng:        r.rng.Clone(),
		peers:      r.peers,
		damp:       r.damp,
		ribIn:      make([][]ribInEntry, len(r.ribIn)),
		ribOut:     make([][]ribOutEntry, len(r.ribOut)),
		local:      cloneSlice(r.local),
		originated: cloneSlice(r.originated),
		origSeen:   cloneSlice(r.origSeen),
		history:    make([]*rcn.History, len(r.history)),
		sequencers: make([]*rcn.Sequencer, len(r.sequencers)),
		linkSeq:    make([]*rcn.Sequencer, len(r.linkSeq)),
	}
	for s, col := range r.ribIn {
		nc := cloneSlice(col)
		for i := range nc {
			if d := nc[i].damp; d != nil {
				nc[i].damp = d.Clone()
			}
			nc[i].reuseTimer = k2.Adopt(nc[i].reuseTimer)
		}
		c.ribIn[s] = nc
	}
	for s, col := range r.ribOut {
		nc := cloneSlice(col)
		for i := range nc {
			nc[i].expiry = k2.Adopt(nc[i].expiry) // marks copy by value
		}
		c.ribOut[s] = nc
	}
	for s, h := range r.history {
		if h != nil {
			c.history[s] = h.Clone()
		}
	}
	for i, seq := range r.sequencers {
		if seq != nil {
			cp := *seq
			c.sequencers[i] = &cp
		}
	}
	for i, seq := range r.linkSeq {
		if seq != nil {
			cp := *seq
			c.linkSeq[i] = &cp
		}
	}
	c.mraiH = mraiHandler{r: c}
	c.reuseH = reuseHandler{r: c}
	return c
}

// clone duplicates the intern table: a fresh map (forks intern new paths
// independently) and a fresh scratch buffer (the buffer is written on every
// lookup). The canonical Path values themselves are shared — they are
// immutable, and sharing keeps pointer-equality fast paths consistent
// between a fork and routes copied from its parent.
func (t *pathTable) clone() *pathTable {
	c := &pathTable{m: make(map[string]Path, len(t.m)), key: make([]byte, 0, cap(t.key))}
	for k, v := range t.m {
		c.m[k] = v
	}
	return c
}

// cloneSlice returns an independent copy of s, preserving nil.
func cloneSlice[T any](s []T) []T {
	if s == nil {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}
