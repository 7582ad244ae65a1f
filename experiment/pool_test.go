package experiment

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func poolScenario(t *testing.T, seed uint64) Scenario {
	t.Helper()
	cfg := dampingCfg()
	cfg.Seed = seed
	return Scenario{Graph: smallMesh(t), ISP: 0, Config: cfg, Pulses: 2}
}

// standalone returns the standalone Run of base at each count.
func standalone(t *testing.T, base Scenario, counts ...int) map[int]*Result {
	t.Helper()
	want := make(map[int]*Result, len(counts))
	for _, n := range counts {
		one := base
		one.Pulses = n
		res, err := Run(one)
		if err != nil {
			t.Fatal(err)
		}
		want[n] = res
	}
	return want
}

// poolSweep sweeps base from pool as a RunCache miss would, without the
// cache, and with one worker: strictly flap, drain, flap, on the calling
// goroutine.
func poolSweep(ctx context.Context, pool *CheckpointPool, base Scenario, pulses ...int) ([]SweepPoint, error) {
	return sweepWarm(ctx, pool, base, pulses, newBudget(1))
}

// checkPoints fails the test for every point that is not the standalone Run
// of its count.
func checkPoints(t *testing.T, pts []SweepPoint, want map[int]*Result) {
	t.Helper()
	for _, pt := range pts {
		if pt.Err != nil || !reflect.DeepEqual(pt.Result, want[pt.Pulses]) {
			t.Errorf("n=%d differs from a standalone Run (err %v)", pt.Pulses, pt.Err)
		}
	}
}

// TestPoolResumedTrunkCancelled: a sweep that resumed the parked trunk and is
// cancelled mid-flap closes it — no goroutine of the sweep outlives it — and
// parks nothing, so the retry begins from the checkpoint and equals a
// standalone Run.
func TestPoolResumedTrunkCancelled(t *testing.T) {
	base := poolScenario(t, 1)
	want := standalone(t, base, 5)
	pool := NewCheckpointPool(4)
	flaps := countFlaps(t, pool, base)
	if _, err := poolSweep(context.Background(), pool, base, 0, 2); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := flaps.halves.Load() + 3 // pulse 3 down, pulse 3 up, pulse 4 down
	flaps.onFlap = func(n int64) {
		if n == stop {
			cancel()
		}
	}
	before := numGoroutineSettled()
	_, err := poolSweep(ctx, pool, base, 5)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if after := numGoroutineSettled(); after > before {
		t.Errorf("goroutines grew from %d to %d: the cancelled trunk was not closed", before, after)
	}
	if parked, resumes := pool.Flights(); parked != 0 || resumes != 1 {
		t.Fatalf("pool flights = %d parked / %d resumes, want 0 / 1 (taken, not re-parked)", parked, resumes)
	}

	flaps.onFlap = nil
	var pts []SweepPoint
	if flapped := flaps.pulsesFlapped(func() { pts, err = poolSweep(context.Background(), pool, base, 5) }); flapped != 5 {
		t.Errorf("the retry flapped %d pulses, want 5 (from the checkpoint)", flapped)
	}
	if err != nil {
		t.Fatal(err)
	}
	checkPoints(t, pts, want)
}

// TestPoolPanickingPointLeavesEntryUsable: a point that panics through the
// point runner — the trunk's own last point, after the sweep parked its fork —
// fails alone with a *PanicError, and the entry keeps its checkpoint and the
// parked flight: the next sweep resumes it and equals standalone Runs.
func TestPoolPanickingPointLeavesEntryUsable(t *testing.T) {
	base := poolScenario(t, 1)
	want := standalone(t, base, 1, 2, 3)
	var panicked atomic.Bool
	swapPointRunner(t, func(ctx context.Context, f *flight, n int) (*Result, error) {
		if n == 2 && panicked.CompareAndSwap(false, true) {
			panic("injected point panic")
		}
		return f.run(ctx, n)
	})
	pool := NewCheckpointPool(4)
	pts, err := poolSweep(context.Background(), pool, base, 1, 2)
	var pe *PanicError
	if !errors.As(err, &pe) || pts[1].Err == nil || pts[0].Err != nil {
		t.Fatalf("want n=2 alone to fail with a *PanicError, got %v", err)
	}
	if pool.Len() != 1 {
		t.Fatalf("pool holds %d entries, want 1", pool.Len())
	}
	pts, err = poolSweep(context.Background(), pool, base, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkPoints(t, pts, want)
	if _, resumes := pool.Flights(); resumes != 1 {
		t.Errorf("flight resumes = %d, want 1 (the flight parked before the panic)", resumes)
	}
}

// TestCheckpointPoolFlightAccounting pins how parked flights count against
// the bound: an entry holding one weighs two, so in a two-slot pool base B's
// warm-up evicts base A together with its flight, and the counters stay
// consistent — evictions = misses − Len(). A's flight was never run, and
// closing it on eviction leaves the goroutine count as it was. A one-slot pool
// never parks.
func TestCheckpointPoolFlightAccounting(t *testing.T) {
	ctx := context.Background()
	a, b := poolScenario(t, 1), poolScenario(t, 2)
	pool := NewCheckpointPool(2)
	if _, err := poolSweep(ctx, pool, a, 0, 1); err != nil {
		t.Fatal(err)
	}
	if parked, _ := pool.Flights(); parked != 1 || pool.Len() != 1 {
		t.Fatalf("after A's sweep: %d flights in %d entries, want 1 / 1", parked, pool.Len())
	}
	before := numGoroutineSettled()
	if _, err := pool.Get(ctx, b); err != nil {
		t.Fatal(err)
	}
	if after := numGoroutineSettled(); after > before {
		t.Errorf("goroutines grew from %d to %d on evicting a parked flight", before, after)
	}
	_, misses, evictions := pool.Stats()
	if parked, _ := pool.Flights(); parked != 0 || pool.Len() != 1 || evictions != 1 {
		t.Fatalf("after B's warm-up: %d flights, %d entries, %d evictions; want A evicted with its flight", parked, pool.Len(), evictions)
	}
	if evictions != misses-uint64(pool.Len()) {
		t.Errorf("evictions %d != misses %d - pooled %d", evictions, misses, pool.Len())
	}
	if _, err := poolSweep(ctx, pool, b, 0, 1); err != nil {
		t.Fatal(err)
	}
	if parked, _ := pool.Flights(); parked != 1 || pool.Len() != 1 {
		t.Errorf("after B's sweep: %d flights in %d entries, want 1 / 1", parked, pool.Len())
	}

	one := NewCheckpointPool(1)
	if _, err := poolSweep(ctx, one, b, 0, 1); err != nil {
		t.Fatal(err)
	}
	if parked, _ := one.Flights(); parked != 0 || one.Len() != 1 {
		t.Errorf("a one-slot pool holds %d flights in %d entries, want 0 / 1", parked, one.Len())
	}
}

// TestPoolConcurrentSweepsTakeOneFlight: two sweeps of one base that both
// stand at their smallest count before either reaches its largest — where it
// parks — compete for one parked flight. Exactly one takes it, the other
// begins from the checkpoint, and both equal standalone Runs. Run under
// -race this is the take/park race check.
func TestPoolConcurrentSweepsTakeOneFlight(t *testing.T) {
	base := poolScenario(t, 1)
	want := standalone(t, base, 3, 5)
	pool := NewCheckpointPool(4)
	if _, err := poolSweep(context.Background(), pool, base, 0, 2); err != nil {
		t.Fatal(err)
	}
	var arrived sync.WaitGroup
	arrived.Add(2)
	both := make(chan struct{})
	go func() { arrived.Wait(); close(both) }()
	swapPointRunner(t, func(ctx context.Context, f *flight, n int) (*Result, error) {
		if n == 3 {
			// With one worker the n=3 branch drains on the trunk's goroutine,
			// so both trunks have started and neither has parked.
			arrived.Done()
			select {
			case <-both:
			case <-time.After(time.Minute):
				return nil, errors.New("the other sweep never reached n=3")
			}
		}
		return f.run(ctx, n)
	})
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pts, err := poolSweep(context.Background(), pool, base, 3, 5)
			if err != nil {
				t.Error(err)
				return
			}
			checkPoints(t, pts, want)
		}()
	}
	wg.Wait()
	if parked, resumes := pool.Flights(); parked != 1 || resumes != 1 {
		t.Errorf("pool flights = %d parked / %d resumes, want 1 / 1", parked, resumes)
	}
}

// TestCheckpointPoolSingleflight pins the pool's population contract: N
// concurrent requests for the same warm-up identity converge on exactly one
// convergence run, and every caller gets the same shared checkpoint.
func TestCheckpointPoolSingleflight(t *testing.T) {
	pool := NewCheckpointPool(4)
	sc := poolScenario(t, 1)
	const callers = 8
	got := make([]*Checkpoint, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cp, err := pool.Get(context.Background(), sc)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = cp
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := 1; i < callers; i++ {
		if got[i] != got[0] {
			t.Fatalf("caller %d got a different checkpoint instance", i)
		}
	}
	hits, misses, _ := pool.Stats()
	if misses != 1 || hits != callers-1 {
		t.Fatalf("stats hits=%d misses=%d, want %d/1", hits, misses, callers-1)
	}
	if pool.Len() != 1 {
		t.Fatalf("pool holds %d entries, want 1", pool.Len())
	}

	// The pooled checkpoint must behave exactly like a fresh one.
	want, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := got[0].Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, want, res)
}

// TestPoolMissParksTheWarmUpEngine: a checkpoint parks the engine its
// warm-up converged, not a fork of it, so a pool miss copies the network no
// more than a pool hit does. That holds for Get on a pool, on a nil pool, and
// for the checkpoint a sweep's miss pools.
func TestPoolMissParksTheWarmUpEngine(t *testing.T) {
	var converged []engine
	orig := warmUp
	warmUp = func(ctx context.Context, sc Scenario) (engine, error) {
		e, err := orig(ctx, sc)
		converged = append(converged, e)
		return e, err
	}
	t.Cleanup(func() { warmUp = orig })
	ctx := context.Background()
	parks := func(name string, cp *Checkpoint) {
		t.Helper()
		if len(converged) != 1 || cp.parked != converged[0] {
			t.Errorf("%s: %d warm-ups; want one, whose converged engine the checkpoint parks unforked", name, len(converged))
		}
		converged = nil
	}
	for _, tc := range []struct {
		name string
		pool *CheckpointPool
	}{{"Get on a pool", NewCheckpointPool(2)}, {"Get on a nil pool", nil}} {
		cp, err := tc.pool.Get(ctx, poolScenario(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		parks(tc.name, cp)
	}
	pool := NewCheckpointPool(2)
	base := poolScenario(t, 2)
	if _, err := poolSweep(ctx, pool, base, 0, 1); err != nil {
		t.Fatal(err)
	}
	cp, err := pool.Get(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	parks("a sweep's miss", cp)
}

// TestCheckpointPoolLRUEviction pins the bound: a full pool evicts the least
// recently used checkpoint, and an evicted identity re-converges on its next
// request.
func TestCheckpointPoolLRUEviction(t *testing.T) {
	pool := NewCheckpointPool(2)
	ctx := context.Background()
	a, b, c := poolScenario(t, 1), poolScenario(t, 2), poolScenario(t, 3)
	for _, sc := range []Scenario{a, b, c} {
		if _, err := pool.Get(ctx, sc); err != nil {
			t.Fatal(err)
		}
	}
	if pool.Len() != 2 {
		t.Fatalf("pool holds %d entries, want 2", pool.Len())
	}
	if _, _, evictions := pool.Stats(); evictions != 1 {
		t.Fatalf("evictions = %d, want 1", evictions)
	}
	// b and c are resident; a (the LRU victim) must re-converge.
	for _, sc := range []Scenario{b, c} {
		if _, err := pool.Get(ctx, sc); err != nil {
			t.Fatal(err)
		}
	}
	_, missesBefore, _ := pool.Stats()
	if _, err := pool.Get(ctx, a); err != nil {
		t.Fatal(err)
	}
	if _, misses, _ := pool.Stats(); misses != missesBefore+1 {
		t.Fatalf("evicted identity did not re-converge: misses %d -> %d", missesBefore, misses)
	}
}

// TestCheckpointPoolErrorNotCached pins the no-negative-caching rule: a
// failed warm-up leaves no pool entry, so the next request retries.
func TestCheckpointPoolErrorNotCached(t *testing.T) {
	pool := NewCheckpointPool(4)
	sc := poolScenario(t, 1)
	sc.Shards = -1 // fingerprints fine, fails validation at warm-up
	for i := 0; i < 2; i++ {
		if _, err := pool.Get(context.Background(), sc); err == nil {
			t.Fatal("invalid scenario converged")
		}
	}
	if pool.Len() != 0 {
		t.Fatalf("failed population left %d pool entries", pool.Len())
	}
	if _, misses, _ := pool.Stats(); misses != 2 {
		t.Fatalf("misses = %d, want 2 (no negative caching)", misses)
	}
}

// TestCheckpointPoolChaos hammers a small pool from many goroutines across
// more identities than it can hold — constant hits, misses and evictions
// interleaving — and checks every run against its reference Result. Run under
// -race this is the pool's data-race certificate.
func TestCheckpointPoolChaos(t *testing.T) {
	const identities = 5
	scenarios := make([]Scenario, identities)
	refs := make([]*Result, identities)
	for i := range scenarios {
		scenarios[i] = poolScenario(t, uint64(i+1))
		scenarios[i].Pulses = 1
		ref, err := Run(scenarios[i])
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}
	pool := NewCheckpointPool(2)
	ctx := context.Background()
	const workers = 8
	const iters = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := (w*iters + i*3) % identities // deterministic interleave, no two workers in phase
				cp, err := pool.Get(ctx, scenarios[id])
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				res, err := cp.Run(scenarios[id])
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if res.MessageCount != refs[id].MessageCount || res.ConvergenceTime != refs[id].ConvergenceTime {
					t.Errorf("worker %d identity %d: pooled run diverged (%d msgs %v vs %d msgs %v)",
						w, id, res.MessageCount, res.ConvergenceTime, refs[id].MessageCount, refs[id].ConvergenceTime)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if pool.Len() > 2 {
		t.Fatalf("pool overflowed its bound: %d entries", pool.Len())
	}
	hits, misses, evictions := pool.Stats()
	if hits+misses != workers*iters {
		t.Fatalf("stats leak: hits %d + misses %d != %d gets", hits, misses, workers*iters)
	}
	if evictions == 0 {
		t.Fatal("chaos never evicted; the test is not exercising the bound")
	}
}

// TestRunCachePooledRun pins the RunCache integration: with a pool layered
// under the cache, a second cache miss sharing the warm-up forks the pooled
// checkpoint (a snapshot hit) and still produces the reference Result.
func TestRunCachePooledRun(t *testing.T) {
	base := poolScenario(t, 1)
	want2, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	sc3 := base
	sc3.Pulses = 3
	want3, err := Run(sc3)
	if err != nil {
		t.Fatal(err)
	}

	c := NewRunCache()
	pool := NewCheckpointPool(4)
	c.SetCheckpointPool(pool)
	got2, err := c.run(context.Background(), base, newBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	got3, err := c.run(context.Background(), sc3, newBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, want2, got2)
	assertResultsEqual(t, want3, got3)
	if hits, misses, _ := pool.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("pool stats hits=%d misses=%d, want 1/1 (second run reuses the warm-up)", hits, misses)
	}
	// A cache hit never touches the pool.
	if _, err := c.run(context.Background(), base, newBudget(1)); err != nil {
		t.Fatal(err)
	}
	if hits, misses, _ := pool.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("cache hit leaked into the pool: hits=%d misses=%d", hits, misses)
	}
}

// TestRunCachePooledSweep pins the sweep path: a cached sweep with a pool
// builds (or reuses) one pooled warm-up for all its miss points, and a repeat
// sweep with fresh pulse counts is a pure snapshot hit.
func TestRunCachePooledSweep(t *testing.T) {
	base := poolScenario(t, 1)
	ref, err := SweepParallelContext(context.Background(), base, []int{0, 1, 2, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}

	c := NewRunCache()
	pool := NewCheckpointPool(4)
	c.SetCheckpointPool(pool)
	got, err := c.Sweep(base, []int{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := c.Sweep(base, []int{2, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range append(got, got2...) {
		assertResultsEqual(t, ref[i].Result, pt.Result)
	}
	if hits, misses, _ := pool.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("pool stats hits=%d misses=%d, want 1/1 (second sweep skips warm-up)", hits, misses)
	}
}

// TestRunCacheCrossEngineCheckpoints pins the cache-identity design across
// engines: fingerprints ignore Shards, so a point a sharded run computed is a
// cache hit for a sequential request and vice versa — even though only the
// sequential warm-up is pooled.
func TestRunCacheCrossEngineCheckpoints(t *testing.T) {
	base := poolScenario(t, 1)
	sharded := base
	sharded.Shards = 2

	t.Run("sharded-then-sequential", func(t *testing.T) {
		c := NewRunCache()
		pool := NewCheckpointPool(4)
		c.SetCheckpointPool(pool)
		first, err := c.run(context.Background(), sharded, newBudget(1))
		if err != nil {
			t.Fatal(err)
		}
		if pool.Len() != 0 {
			t.Fatalf("the sharded run pooled %d warm-ups, want a fresh engine", pool.Len())
		}
		second, err := c.run(context.Background(), base, newBudget(1))
		if err != nil {
			t.Fatal(err)
		}
		if first != second {
			t.Fatal("sequential request missed the sharded-computed entry")
		}
		if hits, misses, _ := c.Stats(); hits != 1 || misses != 1 {
			t.Fatalf("cache stats hits=%d misses=%d, want 1/1", hits, misses)
		}
	})
	t.Run("sequential-then-sharded", func(t *testing.T) {
		c := NewRunCache()
		c.SetCheckpointPool(NewCheckpointPool(4))
		first, err := c.run(context.Background(), base, newBudget(1))
		if err != nil {
			t.Fatal(err)
		}
		second, err := c.run(context.Background(), sharded, newBudget(1))
		if err != nil {
			t.Fatal(err)
		}
		if first != second {
			t.Fatal("sharded request missed the sequentially-computed entry")
		}
		if hits, misses, _ := c.Stats(); hits != 1 || misses != 1 {
			t.Fatalf("cache stats hits=%d misses=%d, want 1/1", hits, misses)
		}
	})
	// The pool, unlike the cache, must keep the engines apart: it parks
	// sequential engines only, so a sharded warm-up has no pool key.
	t.Run("pool-keys-distinct", func(t *testing.T) {
		if _, ok := base.poolKey(); !ok {
			t.Fatal("the sequential warm-up is unpoolable")
		}
		if key, ok := sharded.poolKey(); ok {
			t.Fatalf("the sharded warm-up has pool key %q", key)
		}
	})
}
