package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// SweepPoint pairs a pulse count with its run result. In the partial-result
// API a failed point carries its error in Err and a nil Result; unaffected
// points are always returned, so one sick point no longer discards a whole
// sweep.
type SweepPoint struct {
	Pulses int
	Result *Result
	// Err is the point's failure (nil for a successful point): a run error,
	// a *PanicError recovered from the worker, or a typed ErrCanceled /
	// ErrBudgetExceeded when the sweep's context tripped before the point
	// ran to completion.
	Err error
}

// Sweep runs the scenario once per entry in pulses, in parallel with one
// worker per CPU. See SweepParallel for the execution model.
func Sweep(base Scenario, pulses []int) ([]SweepPoint, error) {
	return SweepParallel(base, pulses, runtime.NumCPU())
}

// SweepParallel is Sweep with an explicit worker bound (minimum 1).
//
// The scenario's warm-up — identical for every pulse count, and the dominant
// cost of small runs — executes exactly once: the converged state is parked
// as a Checkpoint and every pulse point forks it. Runs are independent (each
// fork owns its kernel and state), so results are deterministic regardless
// of scheduling and identical to from-scratch Run calls for each point;
// results are returned in the order of the pulses slice. A fixed pool of
// `workers` goroutines drains the points, so at most that many runs are in
// flight at once.
//
// Failure is per-point, not all-or-nothing: a point that errors (or panics —
// the worker recovers it into a *PanicError carrying the quarantined stack)
// sets its SweepPoint.Err, every other point still returns its Result, and
// the returned error joins the per-point errors in pulses order. Callers that
// only check the error keep the old semantics; callers that want the partial
// results read the slice despite the error.
//
// A scenario-level Impair model is forked per point — every point sees the
// impairment stream from its warm-up-end position, exactly as a standalone
// Run would, and no mutable RNG state is shared between workers.
func SweepParallel(base Scenario, pulses []int, workers int) ([]SweepPoint, error) {
	return SweepParallelContext(context.Background(), base, pulses, workers)
}

// pointRunner executes one sweep point on a forked checkpoint. It is a
// variable so the robustness tests can inject transient errors and panics
// into the worker pool without needing a scenario that misbehaves on cue.
var pointRunner = func(ctx context.Context, cp *Checkpoint, sc Scenario) (*Result, error) {
	return cp.RunContext(ctx, sc)
}

// SweepParallelContext is SweepParallel under a supervising context. A
// tripped context stops the sweep promptly (bounded by one kernel stop-check
// interval per in-flight run): in-flight points stop with a typed
// ErrCanceled / ErrBudgetExceeded, not-yet-started points are marked the
// same way without running, and every point that already completed keeps its
// Result. The worker pool always drains before the call returns — no
// goroutines are left behind.
func SweepParallelContext(ctx context.Context, base Scenario, pulses []int, workers int) ([]SweepPoint, error) {
	if len(pulses) == 0 {
		return nil, nil
	}
	// One warm-up for the whole sweep, on whichever engine the scenario asks
	// for; every point forks the parked engine.
	cp, err := NewCheckpointContext(ctx, base)
	if err != nil {
		return nil, err
	}
	return sweepCheckpointed(ctx, cp, base, pulses, workers)
}

// sweepCheckpointed runs the fixed worker pool over pulses, forking cp per
// point. It is the shared back half of SweepParallelContext and the
// RunCache's pooled sweep path (which reuses a checkpoint across requests
// instead of building one per sweep).
func sweepCheckpointed(ctx context.Context, cp *Checkpoint, base Scenario, pulses []int, workers int) ([]SweepPoint, error) {
	if len(pulses) == 0 {
		return nil, nil
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(pulses) {
		workers = len(pulses)
	}
	pr := progressFrom(ctx)
	out := make([]SweepPoint, len(pulses))
	for i, n := range pulses {
		out[i].Pulses = n
		pr.pointQueued(n)
	}
	// The jobs channel is buffered with every index up front so neither the
	// feeder nor the workers can block on it: a worker that exits early
	// (context trip) never wedges the pipeline.
	jobs := make(chan int, len(pulses))
	for i := range pulses {
		jobs <- i
	}
	close(jobs)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if ctx.Err() != nil {
					// Mark skipped points instead of running them; the sweep
					// still reports every already-finished Result.
					out[i].Err = fmt.Errorf("experiment: sweep n=%d: %w", pulses[i], ctxErr(ctx))
					pr.pointDone(out[i])
					continue
				}
				pr.pointStarted(pulses[i])
				runSweepPoint(ctx, cp, base, pulses[i], &out[i])
				pr.pointDone(out[i])
			}
		}()
	}
	wg.Wait()
	errs := make([]error, 0, len(pulses))
	for i := range out {
		if out[i].Err != nil {
			errs = append(errs, out[i].Err)
		}
	}
	return out, errors.Join(errs...)
}

// runSweepPoint executes one point with panic isolation: a panicking run is
// recovered into a *PanicError on the point (pulse count in the message,
// quarantined stack attached) so the process — and the other points — survive
// it.
func runSweepPoint(ctx context.Context, cp *Checkpoint, base Scenario, pulses int, pt *SweepPoint) {
	defer func() {
		if r := recover(); r != nil {
			fp, _ := scWithPulses(base, pulses).Fingerprint()
			pt.Err = fmt.Errorf("experiment: sweep n=%d: %w", pulses,
				&PanicError{Value: r, Fingerprint: fp, Stack: stackTrace()})
		}
	}()
	res, err := pointRunner(ctx, cp, scWithPulses(base, pulses))
	if err != nil {
		pt.Err = fmt.Errorf("experiment: sweep n=%d: %w", pulses, err)
		return
	}
	pt.Result = res
}

// scWithPulses specializes the base scenario to one pulse count, forking the
// impairment model so no mutable RNG state is shared between workers.
func scWithPulses(base Scenario, pulses int) Scenario {
	sc := base
	sc.Pulses = pulses
	if sc.Impair != nil {
		sc.Impair = sc.Impair.Fork()
	}
	return sc
}

// stackTrace captures the current goroutine's stack for a PanicError.
func stackTrace() []byte {
	buf := make([]byte, 16<<10)
	return buf[:runtime.Stack(buf, false)]
}

// PulseRange returns [from, from+1, …, to].
func PulseRange(from, to int) []int {
	if to < from {
		return nil
	}
	out := make([]int, 0, to-from+1)
	for n := from; n <= to; n++ {
		out = append(out, n)
	}
	return out
}
