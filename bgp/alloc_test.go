package bgp

import (
	"testing"
	"time"

	"rfd/damping"
	"rfd/sim"
	"rfd/topology"
)

// These tests pin the engine's allocation-free hot path: once a network has
// converged (slabs warmed, paths interned, RIB columns grown), the decision
// process and the full send→deliver→receive pipeline must not allocate. CI
// runs them on every push; a regression here means a change reintroduced
// per-event garbage (closures, path copies, map churn) and should be fixed,
// not accommodated.

const allocPrefix = Prefix("alloc/8")

// newConvergedNetwork builds a 3x3 torus, originates one prefix from the
// center router and drains to convergence.
func newConvergedNetwork(t testing.TB, damp *damping.Params) (*sim.Kernel, *Network) {
	t.Helper()
	g, err := topology.Torus(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.Damping = damp
	k := sim.NewKernel(sim.WithSeed(7))
	n, err := NewNetwork(k, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Router(4).Originate(allocPrefix)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return k, n
}

func TestDecideDoesNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name string
		damp *damping.Params
	}{
		{"plain", nil},
		{"damped", func() *damping.Params { p := damping.Cisco(); return &p }()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, n := newConvergedNetwork(t, tc.damp)
			r := n.Router(0)
			if _, ok := r.LocalRoute(allocPrefix); !ok {
				t.Fatal("router 0 has no route after convergence")
			}
			allocs := testing.AllocsPerRun(1000, func() {
				_ = r.decide()
			})
			if allocs != 0 {
				t.Errorf("decision process allocates %.1f per run, want 0", allocs)
			}
		})
	}
}

func TestSendPathDoesNotAllocate(t *testing.T) {
	k, n := newConvergedNetwork(t, nil)
	r := n.Router(0)
	peer := r.peers[0]
	e := r.ribInAt(r.slotOf(peer))
	if e == nil || e.path == 0 {
		t.Fatal("router 0 holds no RIB-IN route from its first peer")
	}
	// Re-delivering the exact advertised route is a pure duplicate: the
	// receiver runs the whole update pipeline (damping classify, RIB-IN
	// store, decision process) and changes nothing. This exercises send,
	// the FIFO/generation bookkeeping, the pooled message slab, the typed
	// deliver event and receive.
	msg := pendingMsg{path: e.path}
	slot := n.Router(peer).slotOf(r.id)
	for i := 0; i < 32; i++ { // warm the message slab and event-queue slab
		n.send(peer, slot, msg)
		for k.Step() {
		}
	}
	allocs := testing.AllocsPerRun(500, func() {
		n.send(peer, slot, msg)
		for k.Step() {
		}
	})
	if allocs != 0 {
		t.Errorf("send→deliver→receive path allocates %.1f per run, want 0", allocs)
	}
}

// TestFlapSteadyStateDoesNotAllocate drives full (withdraw, re-announce)
// pulses through a converged damped network. After the first pulses have
// interned every path the episode explores and sized every slab, subsequent
// pulses — the workload the experiments repeat for hours of virtual time —
// must run without a single allocation: the count must be exactly zero, not
// amortized zero.
func TestFlapSteadyStateDoesNotAllocate(t *testing.T) {
	t.Run("exact", func(t *testing.T) {
		g, err := topology.Torus(3, 3)
		if err != nil {
			t.Fatal(err)
		}
		params := damping.Cisco()
		cfg := DefaultConfig()
		cfg.Seed = 7
		cfg.Damping = &params
		k := sim.NewKernel(sim.WithSeed(7))
		n, err := NewNetwork(k, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		origin := n.Router(4)
		origin.Originate(allocPrefix)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		pulse := func() {
			origin.StopOriginating(allocPrefix)
			for k.Step() {
			}
			origin.Originate(allocPrefix)
			for k.Step() {
			}
		}
		for i := 0; i < 4; i++ { // explore all alternate paths, warm all slabs
			pulse()
		}
		allocs := testing.AllocsPerRun(20, pulse)
		if allocs != 0 {
			t.Errorf("steady-state flap pulse allocates %.1f per run, want 0", allocs)
		}
	})
}

// TestHoldAndReleaseDoesNotAllocate pins the MRAI path: an announcement held
// while its interval runs pushes the interval's expiry under a reserved mark,
// and the expiry releases it; neither allocates. Each cycle withdraws and
// re-originates the prefix at one instant, so the routers downstream explore
// and hold their second announcement behind the interval their first one
// started.
func TestHoldAndReleaseDoesNotAllocate(t *testing.T) {
	g, err := topology.Torus(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seed = 7
	k := sim.NewKernel(sim.WithSeed(7))
	n, err := NewNetwork(k, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	origin := n.Router(4)
	origin.Originate(allocPrefix)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	releases := 0
	k.SetTrace(func(_ time.Duration, name string) {
		if name == "bgp.mrai" {
			releases++
		}
	})
	cycle := func() {
		origin.StopOriginating(allocPrefix)
		origin.Originate(allocPrefix)
		for k.Step() {
		}
	}
	for i := 0; i < 4; i++ { // warm the slabs and the intern table
		cycle()
	}
	if releases == 0 {
		t.Fatal("the cycle holds no announcement behind MRAI")
	}
	allocs := testing.AllocsPerRun(20, cycle)
	if allocs != 0 {
		t.Errorf("holding and releasing announcements allocates %.1f per cycle, want 0", allocs)
	}
}

// TestCheckConsistencyDoesNotAllocate pins the end-of-flight consistency
// check, on both engines, on a damped torus drained after a flap episode: it
// walks the flat RIBs in the network's prefix order and builds nothing.
func TestCheckConsistencyDoesNotAllocate(t *testing.T) {
	g := forkTopology(t, "torus-5x5")
	k, n := convergedForkNet(t, g, false)
	if err := forkPulses(k, n, 3); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	assign, err := topology.Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := NewShardedNetwork(g, n.Config(), assign)
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	sn.Router(0).Originate(forkPrefix)
	if err := sn.Group().Run(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		check func() error
	}{
		{"sequential", n.CheckConsistency},
		{"sharded", sn.CheckConsistency},
	} {
		if err := tc.check(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := tc.check(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: CheckConsistency allocates %.1f per run, want 0", tc.name, allocs)
		}
	}
}
