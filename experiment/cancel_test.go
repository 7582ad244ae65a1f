package experiment

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rfd/bgp"
	"rfd/damping"
	"rfd/topology"
)

// cancelScenario returns a small damped mesh scenario — big enough that a
// run executes tens of thousands of events, so a mid-run cancel lands inside
// the event loop rather than before it.
func cancelScenario(t *testing.T, pulses int) Scenario {
	t.Helper()
	g, err := topology.Torus(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := bgp.DefaultConfig()
	params := damping.Cisco()
	cfg.Damping = &params
	return Scenario{Graph: g, ISP: 0, Config: cfg, Pulses: pulses}
}

// TestRunContextUncancelledMatchesRun pins the fork-equivalence guarantee:
// threading a context that never trips must leave the run byte-identical to
// the plain Run path, measurements included.
func TestRunContextUncancelledMatchesRun(t *testing.T) {
	sc := cancelScenario(t, 2)
	plain, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	withCtx, err := RunContext(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, withCtx) {
		t.Errorf("RunContext with un-tripped ctx differs from Run:\n plain: conv=%v msgs=%d end=%v\n  ctx: conv=%v msgs=%d end=%v",
			plain.ConvergenceTime, plain.MessageCount, plain.EndTime,
			withCtx.ConvergenceTime, withCtx.MessageCount, withCtx.EndTime)
	}
}

// TestRunContextCancelBeforeStart: an already-cancelled context fails the
// run immediately with the typed error.
func TestRunContextCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, cancelScenario(t, 1))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want to also wrap context.Canceled", err)
	}
}

// TestRunContextDeadlineIsBudgetError: an expired deadline surfaces as
// ErrBudgetExceeded (and wraps context.DeadlineExceeded).
func TestRunContextDeadlineIsBudgetError(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := RunContext(ctx, cancelScenario(t, 1))
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want to also wrap context.DeadlineExceeded", err)
	}
}

// numGoroutineSettled samples the goroutine count after letting any
// just-cancelled workers unwind.
func numGoroutineSettled() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(2 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			return m
		}
		n = m
	}
	return n
}

// TestSweepCancelMidFlight cancels a sweep mid-run and checks the three
// promises: the call returns promptly, no worker goroutines are left behind,
// and the error is the typed cancel.
func TestSweepCancelMidFlight(t *testing.T) {
	base := cancelScenario(t, 0)
	before := numGoroutineSettled()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Pull the plug once the first point settles: the sweep is then
	// certainly under way, with most of its 21 points still to fly. A fixed
	// wall-clock delay would let a fast host finish the sweep first.
	var once sync.Once
	ctx = WithProgress(ctx, &Progress{PointDone: func(SweepPoint) { once.Do(cancel) }})
	start := time.Now()
	pts, err := SweepParallelContext(ctx, base, PulseRange(0, 20), 4)
	elapsed := time.Since(start)

	if err == nil {
		t.Skip("sweep finished before the cancel landed; nothing to assert")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	// "Promptly" = well under the time the full 21-point sweep would take;
	// the bound here is generous to stay robust on slow CI machines, but a
	// sweep that ignored the cancel would blow far past it.
	if elapsed > 30*time.Second {
		t.Fatalf("cancelled sweep took %v", elapsed)
	}
	// Partial results: every point is either complete or carries the typed
	// cancel error; nothing is silently dropped.
	if pts == nil {
		t.Fatal("cancelled sweep returned nil points; want partial results")
	}
	for _, p := range pts {
		if p.Err == nil && p.Result == nil {
			t.Errorf("point n=%d has neither result nor error", p.Pulses)
		}
		if p.Err != nil && !errors.Is(p.Err, ErrCanceled) {
			t.Errorf("point n=%d error = %v, want ErrCanceled", p.Pulses, p.Err)
		}
	}
	// No goroutines left behind.
	after := numGoroutineSettled()
	if after > before {
		t.Errorf("goroutines grew from %d to %d after cancelled sweep", before, after)
	}
}

// TestSweepPartialResults: one bad point (negative pulse count fails
// validation) must not discard the good points' results — the new
// partial-result contract.
func TestSweepPartialResults(t *testing.T) {
	base := cancelScenario(t, 0)
	pts, err := SweepParallelContext(context.Background(), base, []int{0, -1, 1}, 2)
	if err == nil {
		t.Fatal("sweep with an invalid point reported no error")
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3", len(pts))
	}
	if pts[0].Err != nil || pts[0].Result == nil {
		t.Errorf("point n=0 should have succeeded: %v", pts[0].Err)
	}
	if pts[2].Err != nil || pts[2].Result == nil {
		t.Errorf("point n=1 should have succeeded: %v", pts[2].Err)
	}
	if pts[1].Err == nil || pts[1].Result != nil {
		t.Errorf("point n=-1 should have failed, got result %v", pts[1].Result)
	}
}

// TestSweepWorkerPanicIsolated: a panicking point becomes that point's
// *PanicError — with the pulse count in the message and a stack attached —
// and every other point still completes.
func TestSweepWorkerPanicIsolated(t *testing.T) {
	orig := pointRunner
	defer func() { pointRunner = orig }()
	pointRunner = func(ctx context.Context, f *flight, n int) (*Result, error) {
		if n == 1 {
			panic("injected worker panic")
		}
		return f.run(ctx, n)
	}
	pts, err := SweepParallelContext(context.Background(), cancelScenario(t, 0), []int{0, 1, 2}, 3)
	if err == nil {
		t.Fatal("sweep with a panicking point reported no error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("joined error %v does not carry a *PanicError", err)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError carries no stack trace")
	}
	if pe.Fingerprint == "" {
		t.Error("PanicError carries no fingerprint for a cacheable scenario")
	}
	if pts[1].Err == nil || !errors.As(pts[1].Err, &pe) {
		t.Errorf("panicking point's error = %v, want *PanicError", pts[1].Err)
	}
	if want := "sweep n=1"; pts[1].Err == nil || !strings.Contains(pts[1].Err.Error(), want) {
		t.Errorf("panic error %q does not name the pulse count (%q)", pts[1].Err, want)
	}
	for _, i := range []int{0, 2} {
		if pts[i].Err != nil || pts[i].Result == nil {
			t.Errorf("point n=%d should have survived the neighbour's panic: %v", pts[i].Pulses, pts[i].Err)
		}
	}
}

// TestSweepErrorOrderDeterministic: the joined error lists failing points in
// pulses order regardless of worker scheduling.
func TestSweepErrorOrderDeterministic(t *testing.T) {
	base := cancelScenario(t, 0)
	var first string
	for trial := 0; trial < 4; trial++ {
		_, err := SweepParallelContext(context.Background(), base, []int{-3, 0, -1}, 3)
		if err == nil {
			t.Fatal("sweep with invalid points reported no error")
		}
		if trial == 0 {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("error order varies between runs:\n%q\nvs\n%q", first, err.Error())
		}
	}
	ia, ib := strings.Index(first, "n=-3"), strings.Index(first, "n=-1")
	if ia < 0 || ib < 0 || ia >= ib {
		t.Errorf("errors not in pulses order: %q", first)
	}
}
