package experiment

import (
	"context"
	"testing"
	"time"

	"rfd/bgp"
	"rfd/sim"
)

// TestWarmUpSuppresses pins that a damped warm-up is not flap-free: the
// seed-1 10×10 Cisco mesh warm-up calls OnSuppress 24 times, 12 routes
// suppressed and all 12 released again before the network drains. So a
// preset cannot simply be installed on a warm-up converged without damping:
// the converged state depends on the preset. The test replays converge's
// warm-up with the hook installed (converge installs none), and checks that
// the replay ends at the instant converge's does.
func TestWarmUpSuppresses(t *testing.T) {
	o := DefaultOptions()
	sc, err := o.meshScenario(o.dampingConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := sc.Graph.Clone()
	origin := g.AddNode()
	if err := g.AddEdge(origin, sc.ISP); err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(sim.WithSeed(sc.Config.Seed))
	n, err := bgp.NewNetwork(k, g, sc.Config)
	if err != nil {
		t.Fatal(err)
	}
	var suppressed, released int
	n.SetHooks(bgp.Hooks{OnSuppress: func(_ time.Duration, _, _ bgp.RouterID, _ bgp.Prefix, on bool) {
		if on {
			suppressed++
		} else {
			released++
		}
	}})
	n.Router(bgp.RouterID(origin)).Originate(FlapPrefix)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if suppressed != 12 || released != 12 {
		t.Errorf("warm-up suppressed %d and released %d routes, want 12 and 12", suppressed, released)
	}
	e, err := converge(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if k.Now() != e.now() {
		t.Errorf("replayed warm-up ended at %v, converge's at %v", k.Now(), e.now())
	}
}
