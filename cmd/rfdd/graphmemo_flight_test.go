package main

import (
	"sync"
	"testing"

	"rfd/topology"
)

// TestScenarioMemoSingleflight: concurrent first requests for one shape
// generate it once — the first builds and the rest wait for its graph — so
// every caller shares one graph and the misses count graphs generated.
func TestScenarioMemoSingleflight(t *testing.T) {
	const callers = 8
	m := newGraphMemo(4)
	key := topology.Shape{Family: "internet", Nodes: 1500, Seed: 1}
	start := make(chan struct{})
	got := make([]*topology.Graph, callers)
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			g, err := m.get(key)
			if err != nil {
				t.Error(err)
			}
			got[i] = g
		}()
	}
	close(start)
	wg.Wait()
	if hits, misses, size := m.stats(); hits != callers-1 || misses != 1 || size != 1 {
		t.Fatalf("memo hits/misses/size = %d/%d/%d, want %d/1/1", hits, misses, size, callers-1)
	}
	for i, g := range got {
		if g != got[0] {
			t.Fatalf("caller %d got another graph than caller 0", i)
		}
	}
}
