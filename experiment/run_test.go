package experiment

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rfd/bgp"
	"rfd/damping"
)

// TestRunIsASweepOfOne pins the single-run path: Run and RunCache.RunContext
// are a sweep of one pulse count, so a miss hands pointRunner exactly one point —
// with or without a pool — and a cache hit hands it none. A panicking point
// therefore comes back from Run as a *PanicError instead of crashing the
// caller.
func TestRunIsASweepOfOne(t *testing.T) {
	sc := poolScenario(t, 1)
	var points atomic.Int64
	swapPointRunner(t, func(ctx context.Context, f *flight, s Scenario) (*Result, error) {
		points.Add(1)
		return f.run(ctx, s)
	})
	pooled := NewRunCache()
	pooled.SetCheckpointPool(NewCheckpointPool(1))
	through := func(c *RunCache) func(Scenario) (*Result, error) {
		return func(sc Scenario) (*Result, error) { return c.RunContext(context.Background(), sc) }
	}
	for _, tc := range []struct {
		name string
		run  func(Scenario) (*Result, error)
		want int64
	}{
		{"Run", Run, 1},
		{"RunCache.RunContext", through(NewRunCache()), 1},
		{"RunCache.RunContext with a pool", through(pooled), 1},
		{"RunCache.RunContext hit", through(pooled), 0},
	} {
		before := points.Load()
		if _, err := tc.run(sc); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := points.Load() - before; got != tc.want {
			t.Errorf("%s handed pointRunner %d points, want %d", tc.name, got, tc.want)
		}
	}

	swapPointRunner(t, func(context.Context, *flight, Scenario) (*Result, error) {
		panic("injected run panic")
	})
	_, err := Run(sc)
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Fingerprint == "" || len(pe.Stack) == 0 {
		t.Fatalf("panicking Run returned %v, want a *PanicError with fingerprint and stack", err)
	}
}

// TestRunErrorsNameNoSweep: a single run's error reads as a run's. Whether
// the failure is the sweep's (validation, a context tripped during warm-up)
// or the one point's (a context tripped mid-flight, a checker violation, an
// injected error or panic), Run and RunCache.RunContext return it without
// the sweep's pulse-count prefix, and the typed errors stay reachable.
func TestRunErrorsNameNoSweep(t *testing.T) {
	type runner = func(context.Context, *flight, Scenario) (*Result, error)
	injected := errors.New("injected point failure")
	// tripMidFlight stops the point's drain: the runner trips the context
	// with cause just before running the point.
	tripMidFlight := func(cause error) func(*Scenario) (context.Context, runner) {
		return func(*Scenario) (context.Context, runner) {
			ctx, cancel := context.WithCancelCause(context.Background())
			return ctx, func(ctx context.Context, f *flight, sc Scenario) (*Result, error) {
				cancel(cause)
				return f.run(ctx, sc)
			}
		}
	}
	for _, tc := range []struct {
		name string
		// setup edits the scenario and returns the run's context and, when
		// the failure is injected, the point runner.
		setup  func(*Scenario) (context.Context, runner)
		is     []error
		panics bool
		text   string
	}{
		{name: "validation", setup: func(sc *Scenario) (context.Context, runner) {
			sc.Pulses = -1
			return context.Background(), nil
		}, text: "negative pulse count"},
		{name: "cancel", setup: func(*Scenario) (context.Context, runner) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ctx, nil
		}, is: []error{ErrCanceled, context.Canceled}},
		{name: "cancel mid-flight", setup: tripMidFlight(context.Canceled), is: []error{ErrCanceled, context.Canceled}},
		{name: "budget", setup: func(*Scenario) (context.Context, runner) {
			ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
			t.Cleanup(cancel)
			return ctx, nil
		}, is: []error{ErrBudgetExceeded, context.DeadlineExceeded}},
		{name: "budget mid-flight", setup: tripMidFlight(context.DeadlineExceeded), is: []error{ErrBudgetExceeded, context.DeadlineExceeded}},
		{name: "checker violation", setup: func(sc *Scenario) (context.Context, runner) {
			sc.Check = true
			return context.Background(), func(ctx context.Context, f *flight, sc Scenario) (*Result, error) {
				// An extra withdrawal charge the protocol never saw.
				isp := f.e.Router(bgp.RouterID(sc.ISP))
				p, _ := isp.DampingParams()
				isp.DebugDampingState(sc.OriginID(), FlapPrefix).Update(damping.NewRules(p), f.e.now(), damping.KindWithdrawal, true)
				return f.run(ctx, sc)
			}
		}, text: "invariant check"},
		{name: "injected error", setup: func(*Scenario) (context.Context, runner) {
			return context.Background(), func(context.Context, *flight, Scenario) (*Result, error) {
				return nil, injected
			}
		}, is: []error{injected}},
		{name: "panic", setup: func(*Scenario) (context.Context, runner) {
			return context.Background(), func(context.Context, *flight, Scenario) (*Result, error) {
				panic("injected run panic")
			}
		}, panics: true},
	} {
		for _, via := range []struct {
			name string
			run  func(context.Context, Scenario) (*Result, error)
		}{
			{"Run", RunContext},
			{"RunCache", func(ctx context.Context, sc Scenario) (*Result, error) {
				return NewRunCache().RunContext(ctx, sc)
			}},
			{"RunCache with a pool", func(ctx context.Context, sc Scenario) (*Result, error) {
				c := NewRunCache()
				c.SetCheckpointPool(NewCheckpointPool(1))
				return c.RunContext(ctx, sc)
			}},
		} {
			t.Run(tc.name+"/"+via.name, func(t *testing.T) {
				sc := poolScenario(t, 1)
				ctx, inject := tc.setup(&sc)
				if inject != nil {
					swapPointRunner(t, inject)
				}
				res, err := via.run(ctx, sc)
				if err == nil || res != nil {
					t.Fatalf("got result %v, error %v; want only an error", res, err)
				}
				if strings.Contains(err.Error(), "sweep") {
					t.Errorf("a single run's error names a sweep: %v", err)
				}
				if !strings.Contains(err.Error(), tc.text) {
					t.Errorf("error %q does not say %q", err, tc.text)
				}
				for _, target := range tc.is {
					if !errors.Is(err, target) {
						t.Errorf("error %v is not %v", err, target)
					}
				}
				var pe *PanicError
				if errors.As(err, &pe) != tc.panics {
					t.Errorf("error %v: errors.As(*PanicError) = %t, want %t", err, !tc.panics, tc.panics)
				}
			})
		}
	}
}
