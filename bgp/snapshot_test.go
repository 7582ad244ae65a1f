package bgp_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"rfd/bgp"
	"rfd/damping"
	"rfd/faults"
	"rfd/sim"
	"rfd/topology"
)

// convergedMesh builds a seeded 4×4 torus with Cisco damping, originates a
// prefix and runs to convergence, returning the live network mid-simulation.
func convergedMesh(t testing.TB) (*sim.Kernel, *bgp.Network, bgp.RouterID, bgp.Prefix) {
	t.Helper()
	g, err := topology.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := bgp.DefaultConfig()
	params := damping.Cisco()
	cfg.Damping = &params
	cfg.Seed = 5
	k := sim.NewKernel(sim.WithSeed(cfg.Seed))
	n, err := bgp.NewNetwork(k, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const prefix = bgp.Prefix("origin/8")
	origin := bgp.RouterID(9)
	n.Router(origin).Originate(prefix)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	n.ResetDamping()
	return k, n, origin, prefix
}

// flapTrace drives two (withdraw, announce) pulses against the network and
// returns the kernel trace of everything that fires, plus an end-state stamp.
func flapTrace(t testing.TB, k *sim.Kernel, n *bgp.Network, origin bgp.RouterID, prefix bgp.Prefix) []byte {
	t.Helper()
	var buf bytes.Buffer
	kernelTrace(k, &buf)
	defer k.SetTrace(nil)
	const interval = 60 * time.Second
	for pulse := 0; pulse < 2; pulse++ {
		n.Router(origin).StopOriginating(prefix)
		if err := k.RunUntil(k.Now() + interval); err != nil {
			t.Fatal(err)
		}
		n.Router(origin).Originate(prefix)
		if err := k.RunUntil(k.Now() + interval); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "end %d executed %d delivered %d dropped %d\n",
		int64(k.Now()), k.Executed(), n.Delivered(), n.Dropped())
	return buf.Bytes()
}

// TestForkReplaysIdenticalTrace is the core fork-equivalence property at the
// bgp layer: a fork of a converged network, driven with the same stimuli as
// the original, produces the byte-identical kernel event trace.
func TestForkReplaysIdenticalTrace(t *testing.T) {
	k, n, origin, prefix := convergedMesh(t)
	fk, fn, err := n.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if fk.Now() != k.Now() || fk.Pending() != k.Pending() {
		t.Fatalf("fork kernel now=%v pending=%d, want now=%v pending=%d",
			fk.Now(), fk.Pending(), k.Now(), k.Pending())
	}
	orig := flapTrace(t, k, n, origin, prefix)
	forked := flapTrace(t, fk, fn, origin, prefix)
	if !bytes.Equal(orig, forked) {
		i := 0
		for i < len(orig) && i < len(forked) && orig[i] == forked[i] {
			i++
		}
		t.Fatalf("fork trace diverges from original at byte %d (orig %d bytes, fork %d bytes)",
			i, len(orig), len(forked))
	}
}

// TestForkIsolation verifies a fork and its parent share no mutable state:
// running the fork to the end leaves the parent's clock, queue and delivery
// counters untouched, and vice versa.
func TestForkIsolation(t *testing.T) {
	k, n, origin, prefix := convergedMesh(t)
	now, pending, delivered := k.Now(), k.Pending(), n.Delivered()

	fk, fn, err := n.Fork()
	if err != nil {
		t.Fatal(err)
	}
	flapTrace(t, fk, fn, origin, prefix)

	if k.Now() != now || k.Pending() != pending || n.Delivered() != delivered {
		t.Fatalf("running the fork mutated the parent: now %v->%v pending %d->%d delivered %d->%d",
			now, k.Now(), pending, k.Pending(), delivered, n.Delivered())
	}
}

// TestSnapshotForksAreIndependent stamps two forks out of one Snapshot and
// checks they replay identically to each other without interfering.
func TestSnapshotForksAreIndependent(t *testing.T) {
	_, n, origin, prefix := convergedMesh(t)
	snap, err := n.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	k1, n1, err := snap.Fork()
	if err != nil {
		t.Fatal(err)
	}
	k2, n2, err := snap.Fork()
	if err != nil {
		t.Fatal(err)
	}
	a := flapTrace(t, k1, n1, origin, prefix)
	b := flapTrace(t, k2, n2, origin, prefix)
	if !bytes.Equal(a, b) {
		t.Fatal("two forks of the same snapshot produced different traces")
	}
}

// stray is a handler that neither belongs to a network nor implements
// bgp.HandlerForker.
type stray struct{}

func (stray) HandleEvent(uint64) {}

// TestForkRejectsUnforkableHandler: a stray handler cannot be rebound, so a
// fork taken while the kernel has an event kind of it must fail, naming the
// kind, rather than leave its events mutating the original.
func TestForkRejectsUnforkableHandler(t *testing.T) {
	k, n, _, _ := convergedMesh(t)
	k.AtHandler(k.Now()+time.Second, "test.stray", stray{}, 0)
	if _, _, err := n.Fork(); err == nil || !strings.Contains(err.Error(), "test.stray") {
		t.Fatalf("Fork error = %v, want one naming the stray event kind", err)
	}
}

// TestConcurrentForksApplyOwnFaultPlans: each fork of a parked snapshot
// gets its own copy of the kernel's event kinds, so two goroutines that fork
// it at once and each apply a different fault plan see only their own plan
// fire, and a later fork of the snapshot sees neither.
func TestConcurrentForksApplyOwnFaultPlans(t *testing.T) {
	_, n, _, _ := convergedMesh(t)
	snap, err := n.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	victims := []bgp.RouterID{3, 5}
	nets := make([]*bgp.Network, len(victims))
	errs := make([]error, len(victims))
	var wg sync.WaitGroup
	for i, victim := range victims {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k, f, err := snap.Fork()
			if err != nil {
				errs[i] = err
				return
			}
			plan := faults.NewPlan(faults.Event{At: time.Second, Kind: faults.KindRouterCrash, Router: victim})
			if err := plan.Apply(f, k.Now(), nil); err != nil {
				errs[i] = err
				return
			}
			nets[i], errs[i] = f, k.Run()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("fork %d: %v", i, err)
		}
	}
	for i, f := range nets {
		for j, victim := range victims {
			if up := f.RouterUp(victim); up == (i == j) {
				t.Errorf("fork %d: router %d up = %t, want %t", i, victim, up, i != j)
			}
		}
	}
	k, f, err := snap.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, victim := range victims {
		if !f.RouterUp(victim) {
			t.Errorf("a later fork of the snapshot crashed router %d", victim)
		}
	}
}

// unforkableImpairment implements LinkImpairment but not ImpairmentForker.
type unforkableImpairment struct{}

func (unforkableImpairment) Impair(time.Duration, bgp.RouterID, bgp.RouterID) (bool, time.Duration) {
	return false, 0
}

func TestForkRejectsUnforkableImpairment(t *testing.T) {
	_, n, _, _ := convergedMesh(t)
	n.SetImpairment(unforkableImpairment{})
	if _, _, err := n.Fork(); err == nil {
		t.Fatal("Fork accepted an impairment model that cannot be forked")
	}
}
