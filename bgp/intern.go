package bgp

// This file implements the per-network interning that makes the engine's
// per-message hot path allocation-free in steady state.
//
// AS paths: a flapping episode explores a small, heavily repeated set of
// paths (every router re-advertises its handful of alternates over and over),
// so each Network keeps one canonical Path per distinct hop sequence. The
// send path builds "me + my best path" via pathTable.prepend, which returns
// the canonical slice on a hit — no per-message copy — and Path.Equal
// collapses to a pointer comparison for canonical paths. Canonical paths are
// immutable by convention: nothing in the engine writes to a Path after it
// enters the table.
//
// Forks share canonical paths: a fork freezes the parent's table into
// read-only layers both sides read, and each side interns what it meets
// later into a private overlay (see pathTable.fork).
//
// Prefixes: the RIBs are indexed by dense prefix id (and directed slot or
// router id) instead of nested string-keyed maps; the Network owns the
// Prefix <-> id mapping. Experiments use a handful of prefixes, so the
// tables stay tiny; ids are assigned in first-use order and are stable for
// the network's lifetime.

import (
	"maps"
	"slices"
	"strings"
	"sync"
)

// maxLayers bounds the frozen layers a lookup may probe before the overlay:
// a fork that would exceed it merges every layer but the oldest into one.
const maxLayers = 4

// pathTable interns AS paths. The zero value is ready to use.
type pathTable struct {
	// layers are the tables frozen at earlier forks, oldest first: read-only,
	// and shared with every fork taken since. No key is in two layers, or in
	// a layer and own.
	layers []map[string]Path
	// own holds the paths interned since the last fork; nil until the first.
	own map[string]Path
	key []byte // scratch buffer for map lookups; reused across calls
	// mu serializes forks: concurrent forks of one parked network each
	// freeze own, so they must not interleave.
	mu sync.Mutex
}

// appendHop appends the fixed-width key encoding of one hop.
func appendHop(b []byte, id RouterID) []byte {
	v := uint32(id)
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// canonical returns the interned path for the scratch key, inserting build()
// into own on first sight. The m[string(key)] lookups do not allocate; only
// a miss copies the key and path.
func (t *pathTable) canonical(build func() Path) Path {
	for _, m := range t.layers {
		if c, ok := m[string(t.key)]; ok {
			return c
		}
	}
	if c, ok := t.own[string(t.key)]; ok {
		return c
	}
	c := build()
	if t.own == nil {
		t.own = make(map[string]Path, 64)
	}
	t.own[string(t.key)] = c
	return c
}

// fork returns the table of a fork: it freezes own into a new layer, so the
// receiver and the fork share every path interned so far and intern later
// ones privately. Freezing leaves every lookup's answer unchanged, and mu
// makes it safe for concurrent forks of one network that is not running.
func (t *pathTable) fork() *pathTable {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.own) > 0 {
		// Clip: the fork shares this backing array, so appends must copy.
		t.layers = append(slices.Clip(t.layers), t.own)
		t.own = nil
		if len(t.layers) > maxLayers {
			merged := make(map[string]Path)
			for _, m := range t.layers[1:] {
				maps.Copy(merged, m)
			}
			t.layers = []map[string]Path{t.layers[0], merged}
		}
	}
	return &pathTable{layers: t.layers}
}

// intern returns the canonical copy of p (nil for an empty path). The
// argument is copied on first sight, so callers may keep mutating their
// slice afterwards.
func (t *pathTable) intern(p Path) Path {
	if len(p) == 0 {
		return nil
	}
	k := t.key[:0]
	for _, hop := range p {
		k = appendHop(k, hop)
	}
	t.key = k
	return t.canonical(p.Clone)
}

// prepend returns the canonical path (id, tail...). On a table hit it costs
// one key build and one map probe, with no copy.
func (t *pathTable) prepend(id RouterID, tail Path) Path {
	k := appendHop(t.key[:0], id)
	for _, hop := range tail {
		k = appendHop(k, hop)
	}
	t.key = k
	return t.canonical(func() Path {
		c := make(Path, len(tail)+1)
		c[0] = id
		copy(c[1:], tail)
		return c
	})
}

// prefixID returns the dense id for prefix, assigning the next one on first
// sight and growing the flat RIBs by one row to cover it.
func (n *Network) prefixID(prefix Prefix) int32 {
	if id, ok := n.prefixIDs[prefix]; ok {
		return id
	}
	// The prefix tables are shared with forks, so they are replaced, never
	// written in place.
	id := int32(len(n.prefixes))
	ids := make(map[Prefix]int32, len(n.prefixIDs)+1)
	maps.Copy(ids, n.prefixIDs)
	ids[prefix] = id
	n.prefixIDs = ids
	n.prefixes = append(slices.Clip(n.prefixes), prefix)
	at, _ := slices.BinarySearchFunc(n.prefixOrder, prefix, func(pid int32, p Prefix) int {
		return strings.Compare(string(n.prefixes[pid]), string(p))
	})
	n.prefixOrder = slices.Insert(slices.Clip(n.prefixOrder), at, id)
	dirs := len(n.adjNbr)
	n.ribIn = extend(n.ribIn, len(n.ribIn)+dirs)
	n.ribOut = extend(n.ribOut, len(n.ribOut)+dirs)
	n.local = extend(n.local, len(n.local)+n.nn)
	n.orig = extend(n.orig, len(n.orig)+n.nn)
	if n.cfg.EnableRCN {
		n.inCause = extend(n.inCause, len(n.inCause)+dirs)
		n.outCause = extend(n.outCause, len(n.outCause)+dirs)
		n.origSeq = extend(n.origSeq, len(n.origSeq)+n.nn)
	}
	return id
}

// lookupPrefix returns the dense id for prefix without assigning one: -1
// and false when the prefix has none.
func (n *Network) lookupPrefix(prefix Prefix) (int32, bool) {
	if id, ok := n.prefixIDs[prefix]; ok {
		return id, true
	}
	return -1, false
}

// extend grows s with zero values until it has length n.
func extend[T any](s []T, n int) []T {
	if len(s) >= n {
		return s
	}
	return append(s, make([]T, n-len(s))...)
}
