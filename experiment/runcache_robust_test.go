package experiment

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rfd/metrics"
)

// swapPointRunner installs fn as the run function of every sweep point — and
// so of every Run — for the test. The hook exists because a deterministic
// scenario cannot fail transiently on cue; it is restored on cleanup.
func swapPointRunner(t *testing.T, fn func(context.Context, *flight, int) (*Result, error)) {
	t.Helper()
	orig := pointRunner
	pointRunner = fn
	t.Cleanup(func() { pointRunner = orig })
}

// TestRunCacheRetriesAfterError is the negative-caching regression test: a
// scenario that fails once and then succeeds must succeed on the second call
// through the cache — the failed entry is evicted, not served forever.
func TestRunCacheRetriesAfterError(t *testing.T) {
	sc := cancelScenario(t, 1)
	var calls atomic.Int64
	swapPointRunner(t, func(ctx context.Context, f *flight, n int) (*Result, error) {
		if calls.Add(1) == 1 {
			return nil, errors.New("injected transient failure")
		}
		return f.run(ctx, n)
	})
	c := NewRunCache()
	if _, err := c.run(context.Background(), sc, newBudget(1)); err == nil {
		t.Fatal("first run should have failed")
	}
	res, err := c.run(context.Background(), sc, newBudget(1))
	if err != nil {
		t.Fatalf("second run still failing: %v (negative caching?)", err)
	}
	if res == nil || calls.Load() != 2 {
		t.Fatalf("second run did not re-execute (calls=%d)", calls.Load())
	}
	// Third call: a genuine cache hit, no third execution.
	if _, err := c.run(context.Background(), sc, newBudget(1)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("successful result was not cached (calls=%d)", calls.Load())
	}
	if hits, misses, _ := c.Stats(); hits != 1 || misses != 2 {
		t.Errorf("stats = hits %d misses %d, want 1/2", hits, misses)
	}
}

// TestRunCacheSweepRetriesAfterError is the same regression on the Sweep
// miss path: a point that fails transiently must be evicted and re-run by a
// later sweep.
func TestRunCacheSweepRetriesAfterError(t *testing.T) {
	base := cancelScenario(t, 0)
	var failOnce atomic.Bool
	failOnce.Store(true)
	swapPointRunner(t, func(ctx context.Context, f *flight, n int) (*Result, error) {
		if n == 1 && failOnce.Swap(false) {
			return nil, errors.New("injected transient failure")
		}
		return f.run(ctx, n)
	})
	c := NewRunCache()
	pts, err := c.Sweep(base, []int{0, 1, 2}, 2)
	if err == nil {
		t.Fatal("first sweep should have reported the injected failure")
	}
	// Partial results: the two healthy points still landed.
	if pts[0].Result == nil || pts[2].Result == nil {
		t.Fatal("healthy points discarded alongside the failing one")
	}
	pts, err = c.Sweep(base, []int{0, 1, 2}, 2)
	if err != nil {
		t.Fatalf("second sweep still failing: %v (negative caching?)", err)
	}
	for _, p := range pts {
		if p.Err != nil || p.Result == nil {
			t.Fatalf("point n=%d still bad after retry: %v", p.Pulses, p.Err)
		}
	}
	// The healthy points must have come from cache, only n=1 re-ran.
	hits, misses, _ := c.Stats()
	if hits != 2 || misses != 4 {
		t.Errorf("stats = hits %d misses %d, want 2 hits (n=0,2) and 4 misses (3 first sweep + 1 retry)", hits, misses)
	}
}

// TestRunCachePanicUnblocksWaiters is the waiter-deadlock regression: when
// the owning run panics, concurrent waiters on the same fingerprint must be
// released with an error — not hang forever — and the key must stay usable.
func TestRunCachePanicUnblocksWaiters(t *testing.T) {
	sc := cancelScenario(t, 1)
	var calls atomic.Int64
	release := make(chan struct{})
	swapPointRunner(t, func(ctx context.Context, f *flight, n int) (*Result, error) {
		if calls.Add(1) == 1 {
			<-release // hold until the waiters have queued up
			panic("injected owner panic")
		}
		return f.run(ctx, n)
	})
	c := NewRunCache()

	ownerErr := make(chan error, 1)
	go func() {
		defer func() { recover() }() // the owner's own panic is re-surfaced as an error, not a panic
		_, err := c.run(context.Background(), sc, newBudget(1))
		ownerErr <- err
	}()
	// Wait for the owner to claim, then pile on waiters.
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	var wg sync.WaitGroup
	waiterErrs := make([]error, 3)
	for i := range waiterErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, waiterErrs[i] = c.run(context.Background(), sc, newBudget(1))
		}(i)
	}
	time.Sleep(5 * time.Millisecond) // let the waiters block on the entry
	close(release)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("waiters still blocked 10 s after the owner panicked — deadlock")
	}
	err := <-ownerErr
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("owner error = %v, want *PanicError", err)
	}
	if len(pe.Stack) == 0 || pe.Fingerprint == "" {
		t.Error("owner PanicError missing stack or fingerprint")
	}
	for i, werr := range waiterErrs {
		if !errors.As(werr, &pe) {
			t.Errorf("waiter %d error = %v, want *PanicError", i, werr)
		}
	}
	// The panicked entry must have been evicted: a fresh call re-runs and
	// succeeds.
	res, err := c.run(context.Background(), sc, newBudget(1))
	if err != nil || res == nil {
		t.Fatalf("run after panic eviction failed: %v", err)
	}
}

// TestRunCacheWaiterHonorsOwnContext: a waiter whose own context trips while
// the owner is still running returns the typed cancel without waiting for
// the owner.
func TestRunCacheWaiterHonorsOwnContext(t *testing.T) {
	sc := cancelScenario(t, 1)
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	swapPointRunner(t, func(ctx context.Context, f *flight, n int) (*Result, error) {
		once.Do(func() { close(started) })
		<-release
		return f.run(ctx, n)
	})
	c := NewRunCache()
	go c.run(context.Background(), sc, newBudget(1)) //nolint:errcheck — owner outcome is not under test
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	waited := make(chan error, 1)
	go func() {
		_, err := c.run(ctx, sc, newBudget(1))
		waited <- err
	}()
	cancel()
	select {
	case err := <-waited:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("waiter error = %v, want ErrCanceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled waiter did not return")
	}
	close(release)
	// Let the owner finish so no goroutine outlives the test hooks.
	for {
		if hits, misses, _ := c.Stats(); hits+misses >= 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunCacheCanceledRunEvicted: a cancelled owner must not poison the
// fingerprint — the next caller re-runs and succeeds.
func TestRunCacheCanceledRunEvicted(t *testing.T) {
	sc := cancelScenario(t, 1)
	c := NewRunCache()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.run(ctx, sc, newBudget(1)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("cancelled run error = %v, want ErrCanceled", err)
	}
	res, err := c.run(context.Background(), sc, newBudget(1))
	if err != nil || res == nil {
		t.Fatalf("run after cancelled owner failed: %v (canceled result negative-cached?)", err)
	}
}

// TestChaosSweep is the acceptance chaos test: one cached sweep under
// injected run panics, transient errors and a mid-flight cancel. Every
// unaffected point must come back, the transient failures must retry through
// the cache (no negative caching).
func TestChaosSweep(t *testing.T) {
	base := cancelScenario(t, 0)
	pulses := PulseRange(0, 9)

	// Chaos plan, seeded and deterministic: n=2 panics on its first attempt,
	// n=4 fails transiently on its first attempt, n=7 is slow and gets
	// cancelled mid-flight on the first sweep. The second sweep runs with no
	// chaos.
	var panicsLeft, failsLeft atomic.Int64
	panicsLeft.Store(1)
	failsLeft.Store(1)
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	cancelArmed := make(chan struct{}, 1)
	chaosFired := make(chan struct{}, 2)
	swapPointRunner(t, func(ctx context.Context, f *flight, n int) (*Result, error) {
		switch n {
		case 2:
			if panicsLeft.Add(-1) >= 0 {
				chaosFired <- struct{}{}
				panic(fmt.Sprintf("chaos: injected panic at n=%d", n))
			}
		case 4:
			if failsLeft.Add(-1) >= 0 {
				chaosFired <- struct{}{}
				return nil, errors.New("chaos: injected transient error")
			}
		case 7:
			select {
			case cancelArmed <- struct{}{}:
				// First visit: once n=2 and n=4 have fired their chaos (a
				// point the cancel beat to its worker would skip it, leaving
				// it armed for sweep 2), trigger the mid-flight cancel, then
				// proceed — the run itself observes the tripped context.
				<-chaosFired
				<-chaosFired
				cancel1()
			default:
			}
		}
		return f.run(ctx, n)
	})

	c := NewRunCache()

	// Sweep 1: chaos. The cancel fires when n=7 starts, so some points may
	// be cancelled; n=2 panics; n=4 fails transiently.
	pts, err := c.SweepContext(ctx1, base, pulses, 3)
	if err == nil {
		t.Fatal("chaos sweep reported no error")
	}
	if len(pts) != len(pulses) {
		t.Fatalf("chaos sweep returned %d points, want %d", len(pts), len(pulses))
	}
	completed := 0
	for i, p := range pts {
		if p.Pulses != pulses[i] {
			t.Fatalf("point %d is n=%d, want %d (order lost)", i, p.Pulses, pulses[i])
		}
		switch {
		case p.Result != nil && p.Err == nil:
			completed++
		case p.Err == nil:
			t.Errorf("point n=%d has neither result nor error", p.Pulses)
		}
	}
	if completed == 0 {
		t.Fatal("no unaffected point survived the chaos sweep")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Error("joined chaos error does not surface the injected panic")
	}

	// Sweep 2: no more chaos, fresh context. Everything must heal: the
	// panicked, failed and cancelled points all retry (their entries were
	// evicted), the completed points come from cache.
	pts, err = c.Sweep(base, pulses, 3)
	if err != nil {
		t.Fatalf("post-chaos sweep failed: %v", err)
	}
	for _, p := range pts {
		if p.Err != nil || p.Result == nil {
			t.Fatalf("point n=%d did not heal: %v", p.Pulses, p.Err)
		}
	}
}

// TestSweepJoinsEachFailureOnce: a failed shared warm-up is one failure, so
// the sweep reports it once, not once per point it was to serve — yet every
// point still carries it, and distinct point failures are each reported.
func TestSweepJoinsEachFailureOnce(t *testing.T) {
	base := cancelScenario(t, 0)
	pulses := PulseRange(0, 4)

	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	pts, err := NewRunCache().SweepContext(ctx, base, pulses, 2)
	if err == nil {
		t.Fatal("sweep under an expired context reported no error")
	}
	if n := strings.Count(err.Error(), "warm-up"); n != 1 {
		t.Errorf("failed warm-up reported %d times, want once:\n%v", n, err)
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("joined error %v does not wrap ErrBudgetExceeded", err)
	}
	for _, p := range pts {
		if p.Err == nil {
			t.Errorf("point n=%d carries no error", p.Pulses)
		}
	}

	swapPointRunner(t, func(ctx context.Context, f *flight, n int) (*Result, error) {
		if n == 1 || n == 3 {
			return nil, fmt.Errorf("injected failure at n=%d", n)
		}
		return f.run(ctx, n)
	})
	_, err = NewRunCache().Sweep(base, pulses, 2)
	for _, n := range []int{1, 3} {
		if want := fmt.Sprintf("injected failure at n=%d", n); err == nil || strings.Count(err.Error(), want) != 1 {
			t.Errorf("joined error %v does not report %q once", err, want)
		}
	}
}

// withSeed returns sc with its configuration seeded: a distinct fingerprint
// (and run) per seed.
func withSeed(sc Scenario, seed uint64) Scenario {
	sc.Config.Seed = seed
	return sc
}

func withPulses(sc Scenario, n int) Scenario {
	sc.Pulses = n
	return sc
}

// countRuns wraps every sweep point's execution with a counter of the runs
// that actually simulated.
func countRuns(t *testing.T) *atomic.Int64 {
	t.Helper()
	var runs atomic.Int64
	swapPointRunner(t, func(ctx context.Context, f *flight, n int) (*Result, error) {
		runs.Add(1)
		return f.run(ctx, n)
	})
	return &runs
}

// TestRunCacheBoundedByBytes drives ten times the bound's worth of distinct
// scenarios through a small cache: after every request the resident Results
// fit the bound, and every Result served — first runs and re-runs of evicted
// keys alike — equals a fresh uncached Run.
func TestRunCacheBoundedByBytes(t *testing.T) {
	base := cancelScenario(t, 0)
	pulses := []int{0, 1}
	probe, err := Run(withPulses(base, 1))
	if err != nil {
		t.Fatal(err)
	}
	limit := 3 * probe.sizeBytes()
	c := newRunCache(limit)
	check := func(sc Scenario, pts []SweepPoint) int64 {
		t.Helper()
		if _, bytes, _ := c.Resident(); bytes > limit {
			t.Fatalf("resident %d bytes after a request, bound %d", bytes, limit)
		}
		var served int64
		for _, p := range pts {
			want, err := Run(withPulses(sc, p.Pulses))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(p.Result, want) {
				t.Fatalf("seed %d n=%d: cached Result differs from a fresh Run", sc.Config.Seed, p.Pulses)
			}
			served += p.Result.sizeBytes()
		}
		return served
	}
	var served int64
	seed := uint64(1)
	for ; served < 10*limit; seed++ {
		sc := withSeed(base, seed)
		pts, err := c.Sweep(sc, pulses, 2)
		if err != nil {
			t.Fatal(err)
		}
		served += check(sc, pts)
	}
	entries, _, evictions := c.Resident()
	if misses := uint64(len(pulses)) * (seed - 1); evictions != misses-uint64(entries) {
		t.Errorf("evictions %d, want misses %d - resident %d", evictions, misses, entries)
	}
	// The first seed was evicted long ago: asking again re-simulates it.
	_, missesBefore, _ := c.Stats()
	sc := withSeed(base, 1)
	pts, err := c.Sweep(sc, pulses, 2)
	if err != nil {
		t.Fatal(err)
	}
	check(sc, pts)
	if _, misses, _ := c.Stats(); misses != missesBefore+uint64(len(pulses)) {
		t.Errorf("re-requested evicted keys: misses %d -> %d, want +%d", missesBefore, misses, len(pulses))
	}
}

// TestRunCacheHitRefreshesRecency: with room for all but one of three
// Results, a hit on the oldest moves it to the front, so the next insert
// evicts the middle one instead.
func TestRunCacheHitRefreshesRecency(t *testing.T) {
	base := cancelScenario(t, 1)
	a, b, cc := withSeed(base, 1), withSeed(base, 2), withSeed(base, 3)
	var total int64
	for _, sc := range []Scenario{a, b, cc} {
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		total += res.sizeBytes()
	}
	c := newRunCache(total - 1) // any one eviction makes the three fit
	runs := countRuns(t)
	for _, sc := range []Scenario{a, b, a, cc} {
		if _, err := c.run(context.Background(), sc, newBudget(1)); err != nil {
			t.Fatal(err)
		}
	}
	if runs.Load() != 3 {
		t.Fatalf("simulated %d runs, want 3 (a, b, c)", runs.Load())
	}
	if entries, _, evictions := c.Resident(); entries != 2 || evictions != 1 {
		t.Fatalf("resident %d, evictions %d, want 2 and 1", entries, evictions)
	}
	if _, err := c.run(context.Background(), a, newBudget(1)); err != nil || runs.Load() != 3 {
		t.Fatalf("re-touched a was evicted (runs %d, err %v)", runs.Load(), err)
	}
	if _, err := c.run(context.Background(), b, newBudget(1)); err != nil || runs.Load() != 4 {
		t.Fatalf("least recently used b was kept (runs %d, err %v)", runs.Load(), err)
	}
}

// TestRunCacheEvictedKeyRefetched: a key the bound evicted is claimed afresh —
// one more miss — and re-simulated. The cache keeps nothing outside memory
// (store=false), so the evicted key is run again.
func TestRunCacheEvictedKeyRefetched(t *testing.T) {
	t.Run("store=false", func(t *testing.T) {
		base := cancelScenario(t, 1)
		a, b := withSeed(base, 1), withSeed(base, 2)
		want, err := Run(a)
		if err != nil {
			t.Fatal(err)
		}
		c := newRunCache(want.sizeBytes()) // one Result at a time
		runs := countRuns(t)
		for _, sc := range []Scenario{a, b} {
			if _, err := c.run(context.Background(), sc, newBudget(1)); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, evictions := c.Resident(); evictions == 0 {
			t.Fatal("b's insert evicted nothing")
		}
		got, err := c.run(context.Background(), a, newBudget(1))
		if err != nil {
			t.Fatal(err)
		}
		if got.MessageCount != want.MessageCount || got.ConvergenceTime != want.ConvergenceTime ||
			!reflect.DeepEqual(got.Updates.Times(), want.Updates.Times()) {
			t.Fatal("refetched Result differs from a fresh Run")
		}
		if _, misses, _ := c.Stats(); misses != 3 {
			t.Errorf("misses %d, want 3 (a, b, evicted a)", misses)
		}
		if runs.Load() != 3 {
			t.Errorf("runs %d, want 3", runs.Load())
		}
	})
}

// TestRunCacheTinyBoundServesWaiters: a bound smaller than one Result evicts
// every entry the moment it resolves, yet the owner and every concurrent
// waiter of that key still get its Result — they hold the entry, not the LRU.
func TestRunCacheTinyBoundServesWaiters(t *testing.T) {
	sc := cancelScenario(t, 1)
	want, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	swapPointRunner(t, func(ctx context.Context, f *flight, n int) (*Result, error) {
		once.Do(func() { close(started) })
		<-release
		return f.run(ctx, n)
	})
	c := newRunCache(1)
	const callers = 4
	got := make([]*Result, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		got[0], errs[0] = c.run(context.Background(), sc, newBudget(1))
	}()
	<-started
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = c.run(context.Background(), sc, newBudget(1))
		}(i)
	}
	// Every waiter has joined the owner's entry once it counts as a hit.
	for {
		if hits, _, _ := c.Stats(); hits == callers-1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	for i := range got {
		if errs[i] != nil || !reflect.DeepEqual(got[i], want) {
			t.Fatalf("caller %d: %v (Result equal to a fresh Run: %t)", i, errs[i], reflect.DeepEqual(got[i], want))
		}
	}
	if entries, bytes, evictions := c.Resident(); entries != 0 || bytes != 0 || evictions != 1 {
		t.Fatalf("resident %d (%d bytes), evictions %d, want nothing kept and one eviction", entries, bytes, evictions)
	}
}

// TestResultSizeBytes pins the size estimate on a hand-built Result: the
// struct and each series by capacity.
func TestResultSizeBytes(t *testing.T) {
	r := &Result{
		Updates:         &metrics.EventSeries{},
		Damped:          &metrics.StepSeries{},
		NoisyReuseTimes: &metrics.EventSeries{},
		PenaltyTraces:   map[PenaltyWatch]*metrics.FloatSeries{{Router: 1, Peer: 2}: {}},
	}
	// Appending from empty doubles capacity: 5 records hold room for 8.
	for i := 0; i < 5; i++ {
		r.Updates.Record(time.Duration(i))
	}
	r.Damped.Record(0, 1)
	r.Damped.Record(1, 0)
	r.NoisyReuseTimes.Record(0)
	r.PenaltyTraces[PenaltyWatch{Router: 1, Peer: 2}].Record(0, 1000)
	want := resultBytes + 8*8 + 2*16 + 1*8 + 1*16
	if got := r.sizeBytes(); got != want {
		t.Fatalf("sizeBytes = %d, want %d", got, want)
	}
	if got := (&Result{}).sizeBytes(); got != resultBytes {
		t.Fatalf("empty Result sizeBytes = %d, want the struct's %d", got, resultBytes)
	}
}
