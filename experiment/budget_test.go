package experiment

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSharedBudgetBoundsBuild: under SharedBudget, sweeps (one at a time and
// several together) and single runs submitted at once never drain more points
// at a time than the budget's two tokens. A draining point holds a token, so
// the points in flight at the pointRunner seam count simulations running.
func TestSharedBudgetBoundsBuild(t *testing.T) {
	var inFlight, peak atomic.Int64
	swapPointRunner(t, func(ctx context.Context, f *flight, n int) (*Result, error) {
		k := inFlight.Add(1)
		defer inFlight.Add(-1)
		for p := peak.Load(); k > p && !peak.CompareAndSwap(p, k); p = peak.Load() {
		}
		time.Sleep(2 * time.Millisecond) // let the other submissions pile up
		return f.run(ctx, n)
	})
	o := Options{Workers: 2}.SharedBudget()
	var wg sync.WaitGroup
	errs := make(chan error, 9)
	submit := func(job func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- job()
		}()
	}
	for i := range 3 {
		sc := cancelScenario(t, 2)
		sc.Config.Seed = uint64(i + 1)
		submit(func() error { _, err := o.sweep(sc, PulseRange(0, 3)); return err })
		submit(func() error { _, err := o.sweeps([]int{1, 2}, sc, sc); return err })
		submit(func() error { _, err := o.run(sc); return err })
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := peak.Load(); got > 2 {
		t.Errorf("%d points drained at once under a 2-token shared budget", got)
	}
}

// TestBudgetPerCallWithoutSharing: zero Options give every sweep and run a
// budget of its own, sized for that call; a shared budget is one, of Workers
// tokens, for the options and every copy of them.
func TestBudgetPerCallWithoutSharing(t *testing.T) {
	var o Options
	if a, b := o.tokens(3), o.tokens(3); a == b || cap(a) != 3 {
		t.Errorf("zero Options: tokens shared (%t) or sized %d, want per call, 3", a == b, cap(a))
	}
	s := Options{Workers: 3}.SharedBudget()
	c := s
	c.Seed = 9
	if s.tokens(1) != s.tokens(5) || c.tokens(1) != s.tokens(1) || cap(s.tokens(1)) != 3 {
		t.Errorf("SharedBudget: want one 3-token budget for every call and copy")
	}
}
