package main

import (
	"container/list"
	"sync"

	"rfd/topology"
)

// graphMemo is a bounded LRU from canonical topology.Shape to the graph it
// generates, so a repeated shape builds no graph — and, because the graph
// carries its own encoding digest (topology.Graph.TSVDigest), hashes none
// either. The canonical shape is exactly what the generator reads: one torus
// serves every seed, and field order, whitespace and spelled-out defaults in a
// request body never reach the key. The graphs the memo hands out are shared
// between requests and must not be mutated; runs clone the base graph before
// attaching the origin.
type graphMemo struct {
	mu      sync.Mutex
	max     int
	entries map[topology.Shape]*list.Element // value: *memoEntry
	lru     *list.List                       // front = most recently used

	hits, misses uint64
}

type memoEntry struct {
	key topology.Shape
	g   *topology.Graph
}

func newGraphMemo(max int) *graphMemo {
	return &graphMemo{max: max, entries: make(map[topology.Shape]*list.Element), lru: list.New()}
}

// get returns the remembered graph for the canonical shape key, or generates
// and remembers one, evicting the least recently used shape past the bound.
// Generation runs outside the lock — a large topology must not stall requests
// for remembered ones — so two first requests for a shape may both generate
// it; the graphs are equal (generation is deterministic), and the second to
// finish adopts the first's so every later request shares one graph and one
// digest. A failed generation is not counted and leaves nothing behind.
func (m *graphMemo) get(key topology.Shape) (*topology.Graph, error) {
	m.mu.Lock()
	if el, ok := m.entries[key]; ok {
		m.lru.MoveToFront(el)
		m.hits++
		m.mu.Unlock()
		return el.Value.(*memoEntry).g, nil
	}
	m.mu.Unlock()

	g, err := key.Generate()
	if err != nil {
		return nil, err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	m.misses++
	if el, ok := m.entries[key]; ok { // lost the race: adopt the winner's graph
		return el.Value.(*memoEntry).g, nil
	}
	m.entries[key] = m.lru.PushFront(&memoEntry{key: key, g: g})
	if m.lru.Len() > m.max {
		oldest := m.lru.Back()
		m.lru.Remove(oldest)
		delete(m.entries, oldest.Value.(*memoEntry).key)
	}
	return g, nil
}

// stats reports lookups served from the memo, graphs generated, and shapes
// currently remembered.
func (m *graphMemo) stats() (hits, misses uint64, size int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses, m.lru.Len()
}
