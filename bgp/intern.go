package bgp

// This file implements the per-network interning that makes the engine's
// per-message hot path allocation-free in steady state.
//
// AS paths: a flapping episode explores a small, heavily repeated set of
// paths (every router re-advertises its handful of alternates over and over),
// so each Network numbers every distinct hop sequence it meets with a
// pathID. Messages, RIB entries and the decision process carry ids: a path is
// one hop prepended to another, so "me + my best path" is one integer-keyed
// probe (pathTable.prepend), and two paths are equal exactly when their ids
// are. The table is append-only: an id, once handed out, names the same path
// for the network's lifetime. Each id's canonical Path is materialized once,
// into chunked arenas, and read by index for the loop filter, path lengths,
// hooks, traces and inspection; nothing in the engine writes to it after.
//
// Forks share the table: a fork freezes the parent's probe map into
// read-only layers both sides read, shares every filled id chunk, and each
// side numbers what it meets later privately (see pathTable.fork). Ids are
// never printed or ordered by, so which side numbered a path first is
// invisible.
//
// Prefixes: the RIBs are indexed by dense prefix id (and directed slot or
// router id) instead of nested string-keyed maps; the Network owns the
// Prefix <-> id mapping, and in-flight messages carry the id. Experiments use
// a handful of prefixes, so the tables stay tiny; ids are assigned in
// first-use order and are stable for the network's lifetime.

import (
	"maps"
	"slices"
	"strings"
	"sync"
)

// pathID names an interned AS path in its network's table. The zero id is
// the empty path: a withdrawal's, or a self-originated route's.
type pathID int32

// maxLayers bounds the frozen layers a lookup may probe before the overlay:
// a fork that would exceed it merges every layer but the oldest into one.
const maxLayers = 4

const (
	// chunkBits sizes the chunks of canonical path headers: id i lives at
	// chunks[i>>chunkBits][i&chunkMask].
	chunkBits = 8
	chunkLen  = 1 << chunkBits
	chunkMask = chunkLen - 1
	// arenaLen is the hop count of one arena a table carves canonical paths
	// from.
	arenaLen = 1024
)

// pathTable interns AS paths. Construct with newPathTable.
type pathTable struct {
	// chunks hold the canonical Path of every id. Chunks and the prefix of
	// the last one that existed at a fork are shared with that fork and never
	// written again; the outer slice is private to each table.
	chunks [][]Path
	// layers are the probe maps frozen at earlier forks, oldest first:
	// read-only, and shared with every fork taken since. A probe key is
	// head<<32 | tail id. No key is in two layers, or in a layer and own.
	layers []map[uint64]pathID
	// own holds the keys numbered since the last fork; nil until the first.
	own map[uint64]pathID
	// arena is unused hop storage private to this table; canonical paths are
	// carved from it.
	arena []RouterID
	// mu serializes forks: concurrent forks of one parked network each
	// freeze own, so they must not interleave.
	mu sync.Mutex
}

// newPathTable returns a table holding only the empty path.
func newPathTable() *pathTable {
	first := make([]Path, 1, chunkLen)
	return &pathTable{chunks: [][]Path{first}}
}

// path returns id's canonical path (nil for the empty path). It is shared
// and must not be modified.
func (t *pathTable) path(id pathID) Path {
	return t.chunks[id>>chunkBits][id&chunkMask]
}

// hops returns the length of id's path.
func (t *pathTable) hops(id pathID) int { return len(t.path(id)) }

// prepend returns the id of the path (head, tail...). A hit costs one map
// probe per frozen layer at most and allocates nothing.
func (t *pathTable) prepend(head RouterID, tail pathID) pathID {
	key := uint64(uint32(head))<<32 | uint64(uint32(tail))
	for _, m := range t.layers {
		if id, ok := m[key]; ok {
			return id
		}
	}
	if id, ok := t.own[key]; ok {
		return id
	}
	return t.add(key, head, t.path(tail))
}

// add numbers the path (head, tail...) under key: its canonical copy is
// carved from the arena and its header appended to the last chunk.
func (t *pathTable) add(key uint64, head RouterID, tail Path) pathID {
	n := len(tail) + 1
	if len(t.arena) < n {
		t.arena = make([]RouterID, max(arenaLen, n))
	}
	p := t.arena[:n:n]
	t.arena = t.arena[n:]
	p[0] = head
	copy(p[1:], tail)
	last := len(t.chunks) - 1
	switch c := t.chunks[last]; {
	case len(c) == chunkLen:
		t.chunks = append(t.chunks, make([]Path, 0, chunkLen))
		last++
	case len(c) == cap(c):
		// The chunk was clipped at a fork and its prefix is shared: continue
		// in a private copy.
		t.chunks[last] = append(make([]Path, 0, chunkLen), c...)
	}
	id := pathID(last<<chunkBits + len(t.chunks[last]))
	t.chunks[last] = append(t.chunks[last], p)
	if t.own == nil {
		t.own = make(map[uint64]pathID, 64)
	}
	t.own[key] = id
	return id
}

// intern returns the id of p, numbering it and its suffixes on first sight.
// p is copied, so the caller may keep mutating it.
func (t *pathTable) intern(p Path) pathID {
	var id pathID
	for i := len(p) - 1; i >= 0; i-- {
		id = t.prepend(p[i], id)
	}
	return id
}

// fork returns the table of a fork: it freezes own into a new layer and
// clips the last chunk, so the receiver and the fork share every id handed
// out so far and number later paths privately. Freezing leaves every lookup's
// answer unchanged, and mu makes it safe for concurrent forks of one network
// that is not running.
func (t *pathTable) fork() *pathTable {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.own) > 0 {
		// Clip: the fork shares this backing array, so appends must copy.
		t.layers = append(slices.Clip(t.layers), t.own)
		t.own = nil
		if len(t.layers) > maxLayers {
			merged := make(map[uint64]pathID)
			for _, m := range t.layers[1:] {
				maps.Copy(merged, m)
			}
			t.layers = []map[uint64]pathID{t.layers[0], merged}
		}
	}
	last := len(t.chunks) - 1
	t.chunks[last] = slices.Clip(t.chunks[last])
	return &pathTable{chunks: slices.Clone(t.chunks), layers: t.layers}
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
