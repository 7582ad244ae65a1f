package experiment

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"rfd/bgp"
	"rfd/faults"
	"rfd/trace"
)

// countBranches makes pointRunner count, for the rest of the test, the points
// handed a flight that rode the trunk to their pulse count and the points
// handed one standing anywhere else.
func countBranches(t *testing.T) (branched, solo *atomic.Int64) {
	t.Helper()
	branched, solo = new(atomic.Int64), new(atomic.Int64)
	swapPointRunner(t, func(ctx context.Context, f *flight, n int) (*Result, error) {
		if f.pulses == n {
			branched.Add(1)
		} else {
			solo.Add(1)
		}
		return f.run(ctx, n)
	})
	return branched, solo
}

// TestSweepTrunkDecidedByScenario: every scenario's sweep branches its points
// off one shared flap trajectory — a fault plan, the invariant checker and a
// caller's trace log included — and every point equals a standalone Run,
// Result.Check included.
func TestSweepTrunkDecidedByScenario(t *testing.T) {
	lossy := func() *faults.Impairments {
		imp := faults.NewImpairments(7)
		if err := imp.SetDefault(faults.Profile{Loss: 0.02, MaxJitter: 3 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		return imp
	}
	rcn := dampingCfg()
	rcn.EnableRCN = true
	for _, tc := range []struct {
		name  string
		trunk bool
		edit  func(*Scenario)
	}{
		{"plain", true, func(*Scenario) {}},
		{"rcn", true, func(sc *Scenario) { sc.Config = rcn }},
		{"watch", true, func(sc *Scenario) { sc.Watch = []PenaltyWatch{{Router: 0, Peer: sc.OriginID()}, {Router: 7, Peer: 2}} }},
		// An empty fault plan: the watchdog alone, with nothing injected.
		{"watchdog", true, func(sc *Scenario) { sc.Faults = faults.NewPlan() }},
		{"impaired", true, func(sc *Scenario) { sc.Impair = lossy() }},
		{"fault-plan", true, func(sc *Scenario) {
			sc.Faults = faults.NewPlan(faults.ResetSession(90*time.Second, 1, 2))
		}},
		// rfdsim's faulted run: loss and jitter and a fault plan together,
		// so every point's FaultReport is pinned too.
		{"faulted", true, func(sc *Scenario) {
			sc.Impair = lossy()
			sc.Faults = faults.NewPlan(
				faults.ResetSession(90*time.Second, 1, 2),
				faults.CrashRouter(200*time.Second, 7, 90*time.Second),
			)
		}},
		{"check", true, func(sc *Scenario) { sc.Check = true }},
		{"trace", true, func(sc *Scenario) { sc.Trace = trace.NewLog(1 << 20) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			branched, solo := countBranches(t)
			base := Scenario{Graph: smallMesh(t), ISP: 0, Config: dampingCfg()}
			tc.edit(&base)
			pulses := []int{0, 1, 3}
			pts, err := SweepParallelContext(context.Background(), base, pulses, 2)
			if err != nil {
				t.Fatal(err)
			}
			wantBranched, wantSolo := int64(len(pulses)), int64(0)
			if !tc.trunk {
				wantBranched, wantSolo = wantSolo, wantBranched
			}
			if branched.Load() != wantBranched || solo.Load() != wantSolo {
				t.Errorf("%d points rode the trunk and %d flew alone, want %d / %d",
					branched.Load(), solo.Load(), wantBranched, wantSolo)
			}
			for i, n := range pulses {
				one := base
				tc.edit(&one) // fresh impairment stream / trace log
				one.Pulses = n
				want, err := Run(one)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(pts[i].Result, want) {
					t.Errorf("n=%d: sweep point differs from a standalone Run", n)
				}
			}
		})
	}
}

// TestSweepTraceMatchesStandaloneRuns: a traced sweep leaves in its log its
// points' flap phases one after another in ascending count order, byte for
// byte what standalone traced Runs appended to one log leave — the log's
// bound and drop count included — whatever the worker count. Only the
// sequential engine (shards=0) traces.
func TestSweepTraceMatchesStandaloneRuns(t *testing.T) {
	const capacity = 3500 // the 3-pulse point's events straddle it
	jsonl := func(log *trace.Log) []byte {
		var b bytes.Buffer
		if err := log.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	base := Scenario{Graph: smallMesh(t), ISP: 0, Config: dampingCfg()}
	want := trace.NewLog(capacity)
	for n := 0; n <= 3; n++ {
		one := base
		one.Pulses, one.Trace = n, want
		if _, err := Run(one); err != nil {
			t.Fatal(err)
		}
	}
	if want.Dropped() == 0 {
		t.Fatal("the standalone runs fit the log: its bound goes untested")
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=0/workers=%d", workers), func(t *testing.T) {
			sc := base
			sc.Trace = trace.NewLog(capacity)
			if _, err := SweepParallelContext(context.Background(), sc, []int{3, 1, 0, 2}, workers); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(jsonl(sc.Trace), jsonl(want)) {
				t.Errorf("sweep trace (%d events) differs from the standalone runs' (%d events)", sc.Trace.Len(), want.Len())
			}
			if sc.Trace.Dropped() != want.Dropped() {
				t.Errorf("sweep trace dropped %d events, standalone runs %d", sc.Trace.Dropped(), want.Dropped())
			}
		})
	}
}

// flapCounter is an engine that counts the flaps flown on it and on every
// fork of it: a flight asks for the origin's router once per half pulse.
type flapCounter struct {
	engine
	*flapCount
}

// flapCount is what a flapCounter and all its forks share.
type flapCount struct {
	halves atomic.Int64
	onFlap func(halves int64) // called, when set, after each count
}

func (c flapCounter) Router(id bgp.RouterID) *bgp.Router {
	n := c.halves.Add(1)
	if c.onFlap != nil {
		c.onFlap(n)
	}
	return c.engine.Router(id)
}

func (c flapCounter) fork() (engine, error) {
	e, err := c.engine.fork()
	if err != nil {
		return nil, err
	}
	c.engine = e
	return c, nil
}

// countFlaps converges base's warm-up in pool (one miss) and makes every
// flight begun from the pooled checkpoint — or forked from one that was —
// count its flaps.
func countFlaps(t *testing.T, pool *CheckpointPool, base Scenario) *flapCount {
	t.Helper()
	cp, err := pool.Get(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	c := flapCounter{cp.parked, new(flapCount)}
	cp.parked = c
	return c.flapCount
}

// pulsesFlapped returns how many pulses run flaps on the counted flights.
func (c *flapCount) pulsesFlapped(run func()) int {
	before := c.halves.Load()
	run()
	return int(c.halves.Load()-before) / 2
}

// TestSweepSnapshotWarm is rfdd's snapshot-warm request shape: a first sweep
// parks the warm-up in the pool, and later sweeps of other pulse counts
// resume the trunk the previous one parked — flapping only the pulses it had
// not reached — or, when that trunk is past their smallest count, begin from
// the pooled checkpoint and leave the deeper trunk parked. Every point equals
// a standalone Run.
func TestSweepSnapshotWarm(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sweeps  [][]int
		flapped []int // pulses each sweep flaps; from pulse 0 every time: 1, 8, 10
		resumes uint64
	}{
		{"in-order", [][]int{{0, 1}, {6, 7, 8}, {9, 10}}, []int{1, 7, 2}, 2},
		// [2,3] starts from the checkpoint; [9,10] still resumes pulse 8.
		{"out-of-order", [][]int{{6, 7, 8}, {2, 3}, {9, 10}}, []int{8, 3, 2}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := poolScenario(t, 3)
			want := standalone(t, base, slices.Concat(tc.sweeps...)...)
			branched, solo := countBranches(t) // a Run is a sweep too: count after the references
			pool := NewCheckpointPool(2)
			flaps := countFlaps(t, pool, base)
			cache := NewRunCache()
			cache.SetCheckpointPool(pool)
			points := 0
			for s, pulses := range tc.sweeps {
				var pts []SweepPoint
				var err error
				flapped := flaps.pulsesFlapped(func() { pts, err = cache.Sweep(base, pulses, 1) })
				if err != nil {
					t.Fatal(err)
				}
				if flapped != tc.flapped[s] {
					t.Errorf("sweep %v flapped %d pulses, want %d", pulses, flapped, tc.flapped[s])
				}
				for i, n := range pulses {
					if pts[i].Pulses != n || !reflect.DeepEqual(pts[i].Result, want[n]) {
						t.Errorf("pooled sweep %v: point %d (n=%d) differs from a standalone Run", pulses, i, n)
					}
				}
				points += len(pulses)
			}
			if hits, misses, _ := pool.Stats(); hits != 3 || misses != 1 {
				t.Errorf("pool stats = %d hits / %d misses, want 3 / 1 (one warm-up for three sweeps)", hits, misses)
			}
			if parked, resumes := pool.Flights(); parked != 1 || resumes != tc.resumes {
				t.Errorf("pool flights = %d parked / %d resumes, want 1 / %d", parked, resumes, tc.resumes)
			}
			if branched.Load() != int64(points) || solo.Load() != 0 {
				t.Errorf("%d points rode a trunk and %d flew alone, want %d / 0", branched.Load(), solo.Load(), points)
			}
		})
	}
}

// TestSweepTrunkStopMarksTheRest: with one worker the sweep is strictly flap,
// drain, flap, so a context tripped while n=1 drains stops the trunk before
// it flaps on: the points it had not reached carry the typed error, the ones
// that had branched off keep their Results.
func TestSweepTrunkStopMarksTheRest(t *testing.T) {
	base := Scenario{Graph: smallMesh(t), ISP: 0, Config: dampingCfg()}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	swapPointRunner(t, func(_ context.Context, f *flight, n int) (*Result, error) {
		res, err := f.run(context.Background(), n)
		if n == 1 {
			cancel()
		}
		return res, err
	})
	rec := &progressRecorder{}
	pts, err := SweepParallelContext(WithProgress(ctx, rec.hook()), base, []int{3, 0, 1, 2}, 1)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	for _, p := range pts {
		switch reached := p.Pulses <= 1; {
		case reached && (p.Err != nil || p.Result == nil):
			t.Errorf("n=%d had branched off before the stop, yet: %v", p.Pulses, p.Err)
		case !reached && (!errors.Is(p.Err, ErrCanceled) || p.Result != nil):
			t.Errorf("n=%d was not reached, want the typed cancel, got result %v err %v", p.Pulses, p.Result, p.Err)
		}
	}
	if len(rec.queued) != 4 || len(rec.started) != 2 || len(rec.done) != 4 {
		t.Errorf("progress = %d queued / %d started / %d done, want 4 / 2 / 4",
			len(rec.queued), len(rec.started), len(rec.done))
	}
}

// TestSweepBranchRefusesFewerPulses pins the contract of the value a point's
// runner is handed: a branch cannot run fewer pulses than it has flapped.
func TestSweepBranchRefusesFewerPulses(t *testing.T) {
	base := Scenario{Graph: smallMesh(t), ISP: 0, Config: bgp.DefaultConfig()}
	swapPointRunner(t, func(ctx context.Context, f *flight, n int) (*Result, error) {
		if n == 2 {
			n = 1
		}
		return f.run(ctx, n)
	})
	pts, err := SweepParallelContext(context.Background(), base, []int{0, 2}, 1)
	if err == nil || pts[1].Err == nil || pts[1].Result != nil {
		t.Fatalf("a branch at pulse 2 ran a 1-pulse scenario: %+v", pts[1])
	}
	if pts[0].Err != nil || pts[0].Result == nil {
		t.Fatalf("n=0 should be unaffected: %v", pts[0].Err)
	}
}

// forkCounter is an engine that counts the forks taken of it and of every fork
// of it.
type forkCounter struct {
	engine
	forks *atomic.Int64
}

func (c forkCounter) fork() (engine, error) {
	c.forks.Add(1)
	e, err := c.engine.fork()
	if err != nil {
		return nil, err
	}
	c.engine = e
	return c, nil
}

// TestSweepForkBudget pins what a sweep of k distinct counts forks. A trunk on
// an owned engine forks only its k−1 branches, so a run forks nothing. From a
// fresh pool entry it forks k+1 times: the trunk off the checkpoint, the k−1
// branches and the fork it parks. Resuming that parked flight saves the
// trunk's fork.
func TestSweepForkBudget(t *testing.T) {
	ctx := context.Background()
	base := poolScenario(t, 1)
	want := standalone(t, base, 0, 1, 2, 3, 5, 6)
	for _, pulses := range [][]int{{2}, {0, 3, 5, 1}} {
		warm, err := warmUp(ctx, base)
		if err != nil {
			t.Fatal(err)
		}
		forks := new(atomic.Int64)
		pts, err := sweepTrunk(ctx, nil, forkCounter{warm, forks}, base, pulses, newBudget(2))
		if err != nil {
			t.Fatal(err)
		}
		checkPoints(t, pts, want)
		if got, k := forks.Load(), int64(len(pulses)); got != k-1 {
			t.Errorf("owned sweep of %v forked %d times, want %d", pulses, got, k-1)
		}
	}

	pool := NewCheckpointPool(4)
	cp, err := pool.Get(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	forks := new(atomic.Int64)
	cp.parked = forkCounter{cp.parked, forks}
	for _, tc := range []struct {
		pulses []int
		want   int64
	}{
		{[]int{3, 0, 2, 1}, 4 + 1}, // fresh: the trunk, 3 branches, the parked fork
		{[]int{5, 6}, 2},           // resumed at pulse 3: 1 branch, the parked fork
	} {
		before := forks.Load()
		pts, err := sweepWarm(ctx, pool, base, tc.pulses, newBudget(2))
		if err != nil {
			t.Fatal(err)
		}
		checkPoints(t, pts, want)
		if got := forks.Load() - before; got != tc.want {
			t.Errorf("pooled sweep of %v forked %d times, want %d", tc.pulses, got, tc.want)
		}
	}
	if _, resumes := pool.Flights(); resumes != 1 {
		t.Errorf("%d sweeps resumed a parked flight, want 1", resumes)
	}
}
