package experiment

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"rfd/bgp"
	"rfd/topology"
)

// quietScenario is a sweep whose episodes go quiet inside a flap interval: an
// undamped 6×6 torus flapping every 10 minutes has delivered a pulse's last
// update long before the next withdrawal.
func quietScenario(t *testing.T, seed uint64, mrai time.Duration) Scenario {
	t.Helper()
	g, err := topology.Torus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := bgp.DefaultConfig()
	cfg.Seed, cfg.MRAI = seed, mrai
	return Scenario{Graph: g, ISP: 0, Config: cfg, FlapInterval: 10 * time.Minute}
}

// TestSweepQuietIntervalMatchesRuns: a sweep point branches off the trunk
// after the interval that follows its last re-announcement, so when the
// episode went quiet inside that interval its drain starts past the end of a
// standalone Run's. Every point, EndTime included, still equals the
// standalone Run, and so does every point a later sweep draws from the
// advanced trunk the first one parked in the pool.
func TestSweepQuietIntervalMatchesRuns(t *testing.T) {
	// dry counts, per (seed, MRAI), the points handed a flight whose events
	// ran out inside the interval it advanced through.
	type cell struct {
		seed uint64
		mrai time.Duration
	}
	var mu sync.Mutex
	dry := make(map[cell]int)
	swapPointRunner(t, func(ctx context.Context, f *flight, n int) (*Result, error) {
		if f.dry {
			mu.Lock()
			dry[cell{f.sc.Config.Seed, f.sc.Config.MRAI}]++
			mu.Unlock()
		}
		return f.run(ctx, n)
	})
	dryPoints := func(seed uint64, mrai time.Duration) int {
		mu.Lock()
		defer mu.Unlock()
		return dry[cell{seed, mrai}]
	}
	pulses := PulseRange(0, 4)

	// The pool cell runs first, alone: {1, 2} parks its trunk advanced past
	// pulse 2. {2, 4} resumes it, so n=2 drains from the parked interval's
	// end and n=4 flaps on without running that interval again; {4} resumes
	// the trunk {2, 4} parked the same way.
	t.Run("pool", func(t *testing.T) {
		ctx := context.Background()
		base := quietScenario(t, 5, 0)
		want := standalone(t, base, pulses...)
		pool := NewCheckpointPool(2)
		for _, sweep := range [][]int{{1, 2}, {2, 4}, {4}} {
			pts, err := poolSweep(ctx, pool, base, sweep...)
			if err != nil {
				t.Fatal(err)
			}
			checkPoints(t, pts, want)
			e, err := pool.entry(ctx, base)
			if err != nil {
				t.Fatal(err)
			}
			if f := e.flight; f == nil || !f.ran || f.pulses != sweep[len(sweep)-1] {
				t.Fatalf("after sweep %v the pool holds %+v, want a flight advanced past pulse %d", sweep, f, sweep[len(sweep)-1])
			}
		}
		if _, resumes := pool.Flights(); resumes != 2 {
			t.Errorf("%d sweeps resumed a parked trunk, want 2", resumes)
		}
		if dryPoints(5, 0) == 0 {
			t.Error("no point drained from an interval that went quiet: the case goes untested")
		}
	})
	for _, mrai := range []time.Duration{0, 30 * time.Second} {
		for seed := uint64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("mrai=%v/seed=%d", mrai, seed), func(t *testing.T) {
				t.Parallel()
				base := quietScenario(t, seed, mrai)
				want := standalone(t, base, pulses...)
				before := dryPoints(seed, mrai)
				pts, err := SweepParallelContext(context.Background(), base, pulses, 2)
				if err != nil {
					t.Fatal(err)
				}
				checkPoints(t, pts, want)
				if dryPoints(seed, mrai) == before {
					t.Error("no point drained from an interval that went quiet: the case goes untested")
				}
			})
		}
	}
}

// BenchmarkSweepTrunk times a Fig-8-style sweep — a 10×10 torus, Cisco
// damping, counts 0–10, one worker — from warm-up to the last point, and
// reports the kernel events it fires: the trunk's, warm-up included, plus
// every point's drain.
func BenchmarkSweepTrunk(b *testing.B) {
	g, err := topology.Torus(10, 10)
	if err != nil {
		b.Fatal(err)
	}
	base := Scenario{Graph: g, ISP: 0, Config: dampingCfg()}
	var (
		mu            sync.Mutex
		drains, trunk uint64 // events fired by the points' drains; by the trunk before its own
	)
	orig := pointRunner
	pointRunner = func(ctx context.Context, f *flight, n int) (*Result, error) {
		k := f.e.shards()[0].Kernel()
		start := k.Executed()
		res, err := f.run(ctx, n)
		mu.Lock()
		defer mu.Unlock()
		// A branch starts with the trunk's events up to its fork, so the
		// point that starts deepest is the trunk's own.
		drains += k.Executed() - start
		trunk = max(trunk, start)
		return res, err
	}
	b.Cleanup(func() { pointRunner = orig })
	pulses := PulseRange(0, 10)
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drains, trunk = 0, 0
		if _, err := SweepParallelContext(context.Background(), base, pulses, 1); err != nil {
			b.Fatal(err)
		}
		events += drains + trunk
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}
