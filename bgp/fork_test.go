package bgp

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rfd/damping"
	"rfd/sim"
	"rfd/topology"
)

// These tests pin what a fork costs and what it may share: a fork copies a
// handful of flat slices, so its allocation count does not grow with the
// network, and concurrent forks of one parked network share its canonical
// paths without racing.

const (
	forkPrefix   = Prefix("fork/8")
	forkInterval = 60 * time.Second
)

// forkTopology builds one of the fork fixtures' topologies.
func forkTopology(tb testing.TB, name string) *topology.Graph {
	tb.Helper()
	var g *topology.Graph
	var err error
	switch name {
	case "torus-5x5":
		g, err = topology.Torus(5, 5)
	case "torus-10x10":
		g, err = topology.Torus(10, 10)
	case "internet-300":
		g, err = topology.InternetDerived(topology.DefaultInternetConfig(300, 1))
	default:
		tb.Fatalf("unknown fork topology %q", name)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// convergedForkNet builds a Cisco-damped network on g, RCN-enhanced when rcn
// is set, originates forkPrefix at router 0, drains to convergence and resets
// damping, as an experiment's warm-up does.
func convergedForkNet(tb testing.TB, g *topology.Graph, rcn bool) (*sim.Kernel, *Network) {
	tb.Helper()
	cfg := DefaultConfig()
	p := damping.Cisco()
	cfg.Damping = &p
	cfg.EnableRCN = rcn
	k := sim.NewKernel(sim.WithSeed(cfg.Seed))
	n, err := NewNetwork(k, g, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	n.Router(0).Originate(forkPrefix)
	if err := k.Run(); err != nil {
		tb.Fatal(err)
	}
	n.ResetDamping()
	return k, n
}

// forkPulses flaps forkPrefix at router 0 count times: a withdrawal, an
// announcement one interval later, and one more interval.
func forkPulses(k *sim.Kernel, n *Network, count int) error {
	for i := 0; i < count; i++ {
		n.Router(0).StopOriginating(forkPrefix)
		if err := k.RunUntil(k.Now() + forkInterval); err != nil {
			return err
		}
		n.Router(0).Originate(forkPrefix)
		if err := k.RunUntil(k.Now() + forkInterval); err != nil {
			return err
		}
	}
	return nil
}

// flappedForkNet is the fork fixture: a converged damped network three
// pulses into a flap episode, with damped routes and reuse timers pending. A
// name ending in "-rcn" runs RCN-enhanced damping, so every session carries
// a root-cause history for the fork to clone.
func flappedForkNet(tb testing.TB, name string) *Network {
	tb.Helper()
	topo, rcn := strings.CutSuffix(name, "-rcn")
	k, n := convergedForkNet(tb, forkTopology(tb, topo), rcn)
	if err := forkPulses(k, n, 3); err != nil {
		tb.Fatal(err)
	}
	if n.DampedLinkCount() == 0 {
		tb.Fatalf("%s: no route damped after 3 pulses", name)
	}
	return n
}

// forkSink keeps BenchmarkNetworkFork's forks observable.
var forkSink *Network

// BenchmarkNetworkFork forks a network three damped pulses into a flap
// episode, as a sweep forks its trunk at each pulse count:
//
//	go test ./bgp -run '^$' -bench NetworkFork -benchmem
func BenchmarkNetworkFork(b *testing.B) {
	for _, name := range []string{"torus-10x10", "torus-10x10-rcn", "internet-300"} {
		b.Run(name, func(b *testing.B) {
			n := flappedForkNet(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, f, err := n.Fork()
				if err != nil {
					b.Fatal(err)
				}
				forkSink = f
			}
		})
	}
}

// TestForkAllocsIndependentOfSize: with RCN off a fork allocates a fixed
// handful of slices, whatever the network's size.
func TestForkAllocsIndependentOfSize(t *testing.T) {
	const limit, spread = 40, 4
	lo, hi := 0.0, 0.0
	for i, name := range []string{"torus-5x5", "torus-10x10", "internet-300"} {
		n := flappedForkNet(t, name)
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := n.Fork(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per fork", name, allocs)
		if allocs > limit {
			t.Errorf("%s: a fork allocates %.0f times, want <= %d", name, allocs, limit)
		}
		if i == 0 || allocs < lo {
			lo = allocs
		}
		if i == 0 || allocs > hi {
			hi = allocs
		}
	}
	if hi-lo > spread {
		t.Errorf("allocations per fork range over [%.0f, %.0f], want within %d of each other", lo, hi, spread)
	}
}

// forkRecord drives pulses more pulses on (k, n), drains it, and returns
// every event it fires, its end state and every router's Local-RIB.
func forkRecord(t *testing.T, k *sim.Kernel, n *Network, pulses int) []byte {
	var buf bytes.Buffer
	k.SetTrace(func(at time.Duration, name string) {
		buf.WriteString(strconv.FormatInt(int64(at), 10))
		buf.WriteByte(' ')
		buf.WriteString(name)
		buf.WriteByte('\n')
	})
	defer k.SetTrace(nil)
	if err := forkPulses(k, n, pulses); err != nil {
		t.Error(err)
		return nil
	}
	if err := k.Run(); err != nil {
		t.Error(err)
		return nil
	}
	fmt.Fprintf(&buf, "end %d executed %d delivered %d damped %d\n",
		int64(k.Now()), k.Executed(), n.Delivered(), n.DampedLinkCount())
	for id := 0; id < n.NumRouters(); id++ {
		n.Router(RouterID(id)).EachLocal(func(v LocalView) {
			fmt.Fprintf(&buf, "%d %s %t %d [%s]\n", id, v.Prefix, v.HasRoute, v.BestPeer, v.BestPath)
		})
	}
	return buf.Bytes()
}

// TestConcurrentForksOfParkedTrunk parks a trunk that has interned paths of
// its own since it was forked, forks it from four goroutines at once — the
// forks share the canonical paths the trunk froze — and flaps each fork a
// different number of further pulses. Each must replay a standalone run of
// the same episode exactly.
func TestConcurrentForksOfParkedTrunk(t *testing.T) {
	const trunkPulses, forks = 2, 4
	g := forkTopology(t, "torus-5x5")
	_, n := convergedForkNet(t, g, false)
	tk, trunk, err := n.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if err := forkPulses(tk, trunk, trunkPulses); err != nil {
		t.Fatal(err)
	}
	if len(trunk.paths.own) == 0 {
		t.Fatal("the trunk interned no path after its fork")
	}

	got := make([][]byte, forks)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fk, fn, err := trunk.Fork()
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = forkRecord(t, fk, fn, i+1)
		}()
	}
	wg.Wait()

	for i := range got {
		k, n := convergedForkNet(t, g, false)
		if err := forkPulses(k, n, trunkPulses); err != nil {
			t.Fatal(err)
		}
		if want := forkRecord(t, k, n, i+1); !bytes.Equal(got[i], want) {
			t.Errorf("fork %d (%d more pulses) diverges from a standalone run", i, i+1)
		}
	}
}

// TestPathTableForkLayers forks a path table again and again, numbering a
// new path between forks: every fork resolves every path numbered before it
// to the same id and the same canonical slice, however the layers were
// merged, and a lookup never probes more than maxLayers of them.
func TestPathTableForkLayers(t *testing.T) {
	parent := newPathTable()
	var ids []pathID
	for i := 0; i < 3*maxLayers; i++ {
		ids = append(ids, parent.intern(Path{RouterID(i), 99}))
		child := parent.fork()
		if len(parent.layers) > maxLayers || len(child.layers) > maxLayers {
			t.Fatalf("fork %d: %d layers, want <= %d", i, len(child.layers), maxLayers)
		}
		for _, id := range ids {
			p := parent.path(id)
			if c := child.intern(p.Clone()); c != id || &child.path(c)[0] != &p[0] {
				t.Fatalf("fork %d: path [%s] is not the parent's id %d and canonical slice", i, p, id)
			}
		}
		if len(child.own) != 0 {
			t.Fatalf("fork %d numbered %d paths its parent already had", i, len(child.own))
		}
	}
}

// TestPathTableForksNumberApart fills a table past a chunk boundary, forks
// it, and numbers different paths on each side: each side resolves its own
// paths and every shared one, and neither sees the other's later paths.
func TestPathTableForksNumberApart(t *testing.T) {
	parent := newPathTable()
	for i := 0; i < chunkLen+chunkLen/2; i++ {
		parent.intern(Path{RouterID(i), RouterID(i + 1)})
	}
	child := parent.fork()
	mine := parent.intern(Path{1, 2, 3})
	theirs := child.intern(Path{4, 5, 6})
	if mine != theirs {
		t.Fatalf("the first paths numbered after a fork got ids %d and %d, want the same next id", mine, theirs)
	}
	if got := parent.path(mine).String(); got != "1 2 3" {
		t.Errorf("parent resolves its id to [%s]", got)
	}
	if got := child.path(theirs).String(); got != "4 5 6" {
		t.Errorf("fork resolves its id to [%s]", got)
	}
	for i := 0; i < chunkLen+chunkLen/2; i++ {
		p := Path{RouterID(i), RouterID(i + 1)}
		if a, b := parent.intern(p), child.intern(p); a != b || !parent.path(a).Equal(p) {
			t.Fatalf("shared path [%s]: ids %d and %d", p, a, b)
		}
	}
}
