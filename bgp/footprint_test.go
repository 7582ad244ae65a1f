package bgp

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"rfd/sim"
	"rfd/topology"
)

// newNetworkHeap returns the live heap bytes a NewNetwork over g retains:
// HeapAlloc after a collection, minus HeapAlloc after a collection taken
// with the graph and kernel already built.
func newNetworkHeap(tb testing.TB, g *topology.Graph) uint64 {
	tb.Helper()
	k := sim.NewKernel(sim.WithSeed(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	n, err := NewNetwork(k, g, DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(n)
	if after.HeapAlloc < before.HeapAlloc {
		return 0
	}
	return after.HeapAlloc - before.HeapAlloc
}

// TestNewNetworkFootprint pins a network's memory at O(V+E): every
// per-router table is sized by the router's degree, never by the network.
func TestNewNetworkFootprint(t *testing.T) {
	const mib = 1 << 20
	g, err := topology.InternetDerived(topology.DefaultInternetConfig(2000, 1))
	if err != nil {
		t.Fatal(err)
	}
	heap := newNetworkHeap(t, g)
	t.Logf("internet-2000: NewNetwork live heap %.2f MiB", float64(heap)/mib)
	if heap >= 5*mib/2 {
		t.Errorf("internet-2000 NewNetwork retains %.2f MiB, want < 2.5 MiB", float64(heap)/mib)
	}

	// A star's leaves have degree 1 whatever the network size, so the bytes
	// per router (the hub's degree-N share included) must not grow with N.
	perRouter := func(n int) float64 {
		g, err := topology.Star(n)
		if err != nil {
			t.Fatal(err)
		}
		return float64(newNetworkHeap(t, g)) / float64(n)
	}
	small, large := perRouter(500), perRouter(2000)
	t.Logf("star: %.0f B/router at N=500, %.0f B/router at N=2000", small, large)
	if large > 1.25*small {
		t.Errorf("star per-router bytes grow with N: %.0f at N=500, %.0f at N=2000", small, large)
	}
}

// BenchmarkNewNetwork builds internet-derived networks. Besides ns/op and
// B/op it reports live-MiB, the heap one network retains after a
// collection — docs/performance.md's footprint table:
//
//	go test ./bgp -run '^$' -bench NewNetwork -benchmem
func BenchmarkNewNetwork(b *testing.B) {
	for _, nodes := range []int{208, 2000, 5000} {
		b.Run(fmt.Sprintf("internet-%d", nodes), func(b *testing.B) {
			g, err := topology.InternetDerived(topology.DefaultInternetConfig(nodes, 1))
			if err != nil {
				b.Fatal(err)
			}
			k := sim.NewKernel(sim.WithSeed(1))
			cfg := DefaultConfig()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NewNetwork(k, g, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(newNetworkHeap(b, g))/(1<<20), "live-MiB")
		})
	}
}

// pointerPaths returns the path of every field in t whose kind holds a
// pointer the garbage collector must trace, walking structs and arrays.
func pointerPaths(t reflect.Type, path string) []string {
	switch t.Kind() {
	case reflect.Struct:
		var out []string
		for i := range t.NumField() {
			f := t.Field(i)
			out = append(out, pointerPaths(f.Type, path+"."+f.Name)...)
		}
		return out
	case reflect.Array:
		return pointerPaths(t.Elem(), path+"[]")
	case reflect.Pointer, reflect.Interface, reflect.Map, reflect.Slice,
		reflect.String, reflect.Func, reflect.Chan, reflect.UnsafePointer:
		return []string{path + " (" + t.Kind().String() + ")"}
	}
	return nil
}

// TestRIBEntryLayout pins the RIB entries' layout: one RIB-IN and one
// RIB-OUT entry exist per (directed slot, prefix), so each stays within 40
// bytes (on 32-bit targets too) and holds no pointer, which keeps the RIBs
// out of the garbage collector's scan and lets a fork copy them as they are.
func TestRIBEntryLayout(t *testing.T) {
	const maxSize = 40
	for _, typ := range []reflect.Type{reflect.TypeFor[ribInEntry](), reflect.TypeFor[ribOutEntry]()} {
		if size := typ.Size(); size > maxSize {
			t.Errorf("%s is %d bytes, want at most %d", typ.Name(), size, maxSize)
		}
		for _, p := range pointerPaths(typ, typ.Name()) {
			t.Errorf("%s holds a pointer: %s", typ.Name(), p)
		}
	}
}
