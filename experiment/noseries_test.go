package experiment

import (
	"cmp"
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"rfd/bgp"
	"rfd/damping"
	"rfd/faults"
	"rfd/metrics"
	"rfd/topology"
)

// noSeriesScenario is the damped scenario on shape's topology, at its default
// ispAS.
func noSeriesScenario(t *testing.T, sh topology.Shape, preset string, rcn bool, shards int) Scenario {
	t.Helper()
	g, err := sh.Generate()
	if err != nil {
		t.Fatal(err)
	}
	cfg := bgp.DefaultConfig()
	if cfg.Damping, err = damping.ParsePreset(preset); err != nil {
		t.Fatal(err)
	}
	cfg.EnableRCN = rcn
	return Scenario{Graph: g, ISP: sh.DefaultISP(), Config: cfg, Shards: shards}
}

// checkSeriesScalars asserts that a full Result's online scalars are what its
// series yield.
func checkSeriesScalars(t *testing.T, res *Result) {
	t.Helper()
	if got := res.Updates.Count(); res.MessageCount != got {
		t.Errorf("MessageCount %d, Updates.Count() %d", res.MessageCount, got)
	}
	if got := res.Damped.Max(); res.MaxDamped != got {
		t.Errorf("MaxDamped %d, Damped.Max() %d", res.MaxDamped, got)
	}
	if got := metrics.ComputePhases(res.Updates, res.NoisyReuseTimes, res.FlapStart, res.FlapEnd); res.Phases != got {
		t.Errorf("Phases %+v, ComputePhases %+v", res.Phases, got)
	}
	var conv time.Duration
	if last, ok := res.Updates.Last(); ok && last > res.FlapEnd {
		conv = last - res.FlapEnd
	}
	if res.ConvergenceTime != conv {
		t.Errorf("ConvergenceTime %v, from Updates %v", res.ConvergenceTime, conv)
	}
}

// withoutSeries returns a copy of r that holds what a NoSeries run of its
// scenario would: the scalars, without the series.
func (r *Result) withoutSeries() *Result {
	c := *r
	c.Updates, c.Damped, c.NoisyReuseTimes = nil, nil, nil
	return &c
}

// checkNoSeries asserts that a NoSeries Result is the full one without its
// series.
func checkNoSeries(t *testing.T, full, lean *Result) {
	t.Helper()
	if want := full.withoutSeries(); !reflect.DeepEqual(lean, want) {
		t.Errorf("NoSeries Result\n%+v\nwant the full one without series\n%+v", lean, want)
	}
}

// TestNoSeriesMatchesFull: a NoSeries run records every scalar a full run
// records — on both engines (the sharded one a Run per count), at every point
// of a trunk, and across a fork in the middle of a drain — and a full run's
// online scalars are exactly what its series yield.
func TestNoSeriesMatchesFull(t *testing.T) {
	counts := []int{0, 1, 2, 3, 5, 8}
	for _, sh := range []topology.Shape{
		{Rows: 10, Cols: 10},
		{Family: "internet", Nodes: 208, Seed: 1},
		{Family: "internet", Nodes: 300, Seed: 1},
	} {
		for _, preset := range []string{"cisco", "juniper"} {
			for _, rcn := range []bool{false, true} {
				for _, shards := range []int{1, 2} {
					name := fmt.Sprintf("%s-%d/%s/rcn=%t/shards=%d", cmp.Or(sh.Family, "mesh"), sh.Routers(), preset, rcn, shards)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						full := noSeriesScenario(t, sh, preset, rcn, shards)
						lean := full
						lean.NoSeries = true
						fullRes, leanRes := sweepOrRuns(t, full, counts), sweepOrRuns(t, lean, counts)
						for i := range counts {
							checkSeriesScalars(t, fullRes[i])
							checkNoSeries(t, fullRes[i], leanRes[i])
						}
					})
				}
			}
		}
	}

	// A crash discards suppressed states and a reset or link flap withdraws
	// their routes: the running count must follow the scan through them. This
	// and the fork below need the sequential engine.
	t.Run("faults/shards=1", func(t *testing.T) {
		t.Parallel()
		full := noSeriesScenario(t, topology.Shape{Rows: 10, Cols: 10}, "cisco", false, 1)
		full.Faults = faults.NewPlan(
			faults.ResetSession(90*time.Second, 0, 1),
			faults.FlapLink(150*time.Second, 5, 6, 100*time.Second),
			faults.CrashRouter(200*time.Second, 10, 90*time.Second),
			faults.CrashRouter(400*time.Second, 11, 90*time.Second),
		)
		lean := full
		lean.NoSeries = true
		for _, n := range []int{1, 3, 6} {
			full.Pulses, lean.Pulses = n, n
			fullRes, err := Run(full)
			if err != nil {
				t.Fatal(err)
			}
			leanRes, err := Run(lean)
			if err != nil {
				t.Fatal(err)
			}
			checkSeriesScalars(t, fullRes)
			checkNoSeries(t, fullRes, leanRes)
		}
	})

	// A fork mid-drain clones the recorder with a release under way and a
	// damped count pending at its instant.
	t.Run("fork-mid-drain/shards=1", func(t *testing.T) {
		full := noSeriesScenario(t, topology.Shape{Family: "internet", Nodes: 208, Seed: 1}, "cisco", false, 1)
		full.Pulses = 3
		want, err := Run(full)
		if err != nil {
			t.Fatal(err)
		}
		checkSeriesScalars(t, want)
		for _, noSeries := range []bool{false, true} {
			sc := full
			sc.NoSeries = noSeries
			for _, at := range []time.Duration{want.FlapEnd + time.Second, want.Phases.ReleaseStart, (want.Phases.ReleaseStart + want.Phases.End) / 2} {
				trunkRes, forkRes := forkMidDrain(t, sc, at)
				for _, got := range []*Result{trunkRes, forkRes} {
					if noSeries {
						checkNoSeries(t, want, got)
					} else if !reflect.DeepEqual(got, want) {
						t.Errorf("fork at %v: Result differs from a standalone Run", at)
					}
				}
			}
		}
	})
}

// sweepOrRuns returns sc's Results at counts: one sweep on the sequential
// engine, one Run per count on the sharded one, which sweeps a single count.
func sweepOrRuns(t *testing.T, sc Scenario, counts []int) []*Result {
	t.Helper()
	out := make([]*Result, len(counts))
	if sc.Shards <= 1 {
		pts, err := SweepParallelContext(context.Background(), sc, counts, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, pt := range pts {
			out[i] = pt.Result
		}
		return out
	}
	for i, n := range counts {
		one := sc
		one.Pulses = n
		res, err := Run(one)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res
	}
	return out
}

// forkMidDrain flies sc to its pulse count, drains it up to at (flap-relative)
// and forks it there; it returns the Results of the flight and of its fork.
func forkMidDrain(t *testing.T, sc Scenario, at time.Duration) (*Result, *Result) {
	t.Helper()
	ctx := context.Background()
	e, err := converge(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	f, err := begin(sc, e)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	if err := f.pulseTo(ctx, sc.Pulses); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.e.runUntil(ctx, f.epoch+at); err != nil {
		t.Fatal(err)
	}
	b, err := f.fork()
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	forkRes, err := b.finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	trunkRes, err := f.finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return trunkRes, forkRes
}

// TestNoSeriesFootprint pins what a NoSeries Result costs the run cache: under
// 1 KiB without Watch, so the default bound holds at least ten times as many
// of them as of full ones, under keys and warm-ups of their own.
func TestNoSeriesFootprint(t *testing.T) {
	full := noSeriesScenario(t, topology.Shape{Rows: 10, Cols: 10}, "cisco", false, 1)
	full.Pulses = 1
	lean := full
	lean.NoSeries = true
	fullRes, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}
	leanRes, err := Run(lean)
	if err != nil {
		t.Fatal(err)
	}
	if size := leanRes.sizeBytes(); size >= 1<<10 {
		t.Errorf("NoSeries Result estimated at %d bytes, want under 1 KiB", size)
	}
	fullFit, leanFit := DefaultCacheBytes/fullRes.sizeBytes(), DefaultCacheBytes/leanRes.sizeBytes()
	t.Logf("full Result %d bytes, NoSeries %d: %d and %d per %d MiB", fullRes.sizeBytes(), leanRes.sizeBytes(), fullFit, leanFit, DefaultCacheBytes>>20)
	if leanFit < 10*fullFit {
		t.Errorf("%d MiB holds %d NoSeries Results and %d full ones, want at least 10x", DefaultCacheBytes>>20, leanFit, fullFit)
	}
	fullKey, _ := full.Fingerprint()
	leanKey, _ := lean.Fingerprint()
	fullPool, _ := full.poolKey()
	leanPool, _ := lean.poolKey()
	if fullKey == leanKey || fullPool == leanPool {
		t.Error("NoSeries shares a cache key or a pool key with the full scenario")
	}
}

// TestRecorderScalarsMatchSeries feeds recorders random observation streams
// crowded onto few instants — several deliveries, flips and reuses at one
// instant, in every order, a reuse before the first delivery, no delivery at
// all — and forks each stream once along the way: the online scalars of
// every recorder, full or NoSeries, are what the full recorder's series
// yield.
func TestRecorderScalarsMatchSeries(t *testing.T) {
	sc := Scenario{Graph: smallMesh(t)}
	rng := rand.New(rand.NewPCG(1, 2))
	for stream := 0; stream < 2000; stream++ {
		n := rng.IntN(40)
		obs := make([]observation, n)
		at, damped := time.Duration(0), 0
		for i := range obs {
			at += time.Duration(rng.IntN(2)) // half the observations share the last one's instant
			o := observation{at: at, kind: obsKind(rng.IntN(3))}
			switch o.kind {
			case obsDeliver:
				o.router = bgp.RouterID(rng.IntN(4))
			case obsSuppress:
				o.flag = damped == 0 || rng.IntN(2) == 0
				if o.flag {
					damped++
				} else {
					damped--
				}
			case obsReuse:
				o.flag = rng.IntN(2) == 0
			}
			obs[i] = o
		}
		flapEnd := time.Duration(rng.IntN(int(at) + 2))
		forkAt := rng.IntN(n + 1)
		var got []*Result
		var want *Result
		for _, noSeries := range []bool{false, true} {
			sc.NoSeries = noSeries
			rc := newRecorder(sc)
			rc.replay([][]observation{obs[:forkAt]})
			fork := rc.clone()
			for _, r := range []*recorder{rc, fork} {
				r.replay([][]observation{obs[forkAt:]})
				r.res.FlapEnd = flapEnd
				r.seal()
				got = append(got, r.res)
			}
			if !noSeries {
				want = rc.res
			}
		}
		checkSeriesScalars(t, want)
		for _, res := range got {
			if !reflect.DeepEqual(res, want) && !reflect.DeepEqual(res, want.withoutSeries()) {
				t.Fatalf("stream %d (%d observations, fork at %d): recorder scalars %+v, want %+v", stream, n, forkAt, res, want)
			}
		}
		if t.Failed() {
			t.Fatalf("stream %d: %+v", stream, obs)
		}
	}
}
