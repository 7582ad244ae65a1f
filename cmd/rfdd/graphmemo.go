package main

import (
	"context"
	"sync/atomic"

	"rfd/internal/lru"
	"rfd/topology"
)

// graphMemo is an internal/lru cache from canonical topology.Shape to the
// graph it generates, a slot per shape, so a repeated shape builds no graph —
// and, as the graph carries its own encoding digest (topology.Graph.TSVDigest),
// hashes none either. The canonical shape is exactly what the generator reads:
// one torus serves every seed, and field order, whitespace and spelled-out
// defaults in a request body never reach the key. Concurrent first requests
// for a shape generate it once. The graphs are shared between requests and
// must not be mutated; runs clone the base graph before attaching the origin.
type graphMemo struct {
	cache     *lru.Cache[topology.Shape, *topology.Graph]
	generated atomic.Uint64
}

func newGraphMemo(max int) *graphMemo {
	return &graphMemo{cache: lru.New[topology.Shape, *topology.Graph](int64(max), nil)}
}

// get returns the remembered graph for the canonical shape key, generating
// it if no request has yet.
func (m *graphMemo) get(key topology.Shape) (*topology.Graph, error) {
	return m.cache.Get(context.Background(), key, func() (*topology.Graph, int64, error) {
		g, err := key.Generate()
		if err != nil {
			return nil, 0, err
		}
		m.generated.Add(1)
		return g, 1, nil
	})
}

// stats reports lookups served from the memo (including those that waited
// on a concurrent generation), graphs generated, and shapes currently
// remembered.
func (m *graphMemo) stats() (hits, misses uint64, size int) {
	s := m.cache.Stats()
	return s.Hits, m.generated.Load(), s.Resident
}
