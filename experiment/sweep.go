package experiment

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"rfd/trace"
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
// cost of small runs — executes exactly once. Every flap interval is then
// simulated once as well: the n-pulse and (n+1)-pulse runs are the same
// simulation up to the (n+1)-th withdrawal, so the sweep forks the converged
// engine once, flaps that one trunk through the requested counts in ascending
// order and, at each, runs the interval after the re-announcement and forks
// it — the branch drains on into the n-pulse Result while the trunk withdraws
// and flaps on; the largest count drains on the trunk itself. A fork copies
// everything that makes the simulation (in-flight messages, timers, RNG and
// impairment stream positions) and everything recorded so far, so every
// point is identical to a from-scratch Run of its pulse count, whatever the
// scheduling; results are returned in the order of the pulses slice, and a
// count asked for twice is simulated once. workers bounds the simulations
// running at once, the trunk being one of them: with one worker the sweep is
// strictly flap, drain, flap. Run is this sweep with one count and one
// worker, whose one flight takes the converged engine itself, unforked; a
// sharded base cannot fork, so its sweep asks for one distinct count or is
// refused.
// Whatever a flight carries rides the trunk with it: a fault plan's pending
// faults are kernel events, the invariant checker's shadow state forks with
// its network, and a trace is recorded per flight and appended to the
// scenario's log in ascending count order once every point has drained.
//
// SweepParallel converges afresh; a sweep through a RunCache with a
// CheckpointPool starts from the pooled warm-up, and its trunk outlives it:
// before draining its largest count the sweep parks a fork of the trunk in
// the pool, and the next sweep of the scenario whose counts all lie at or
// past that pulse resumes the parked flight rather than flapping from pulse 0.
//
// Failure is per-point, not all-or-nothing: a point that errors (or panics —
// the worker recovers it into a *PanicError carrying the quarantined stack)
// sets its SweepPoint.Err, every other point still returns its Result, and
// the returned error joins the per-point errors in pulses order. A failure of
// the trunk itself fails the points it had not reached yet. Callers that only
// check the error keep the old semantics; callers that want the partial
// results read the slice despite the error.
//
// A scenario-level Impair model is never consumed: a flight installs forks of
// it, so every point sees the impairment stream from its warm-up-end position,
// exactly as a standalone Run would, and no mutable RNG state is shared
// between workers.
func SweepParallel(base Scenario, pulses []int, workers int) ([]SweepPoint, error) {
	return SweepParallelContext(context.Background(), base, pulses, workers)
}

// pointRunner executes one sweep point: f is a branch of the sweep's trunk —
// or, for the largest count, the trunk itself — standing at the point's pulse
// count, and the default finishes it into sc. It is a variable so the
// robustness tests can inject transient errors and panics into the sweep
// without needing a scenario that misbehaves on cue.
var pointRunner = func(ctx context.Context, f *flight, sc Scenario) (*Result, error) {
	return f.run(ctx, sc)
}

// SweepParallelContext is SweepParallel under a supervising context. A
// tripped context stops the sweep promptly (bounded by one kernel stop-check
// interval per in-flight run): in-flight points stop with a typed
// ErrCanceled / ErrBudgetExceeded, not-yet-started points are marked the
// same way without running, and every point that already completed keeps its
// Result. Every goroutine the sweep started has exited before the call
// returns.
func SweepParallelContext(ctx context.Context, base Scenario, pulses []int, workers int) ([]SweepPoint, error) {
	return (*RunCache)(nil).sweep(ctx, base, pulses, newBudget(workers))
}

// budget bounds the simulations running at once — a warm-up, a trunk flapping
// or a point draining — by one token each. Sweeps submitted together share
// one (Options.sweeps), so the bound holds across them, and so does every
// sweep and run of a build under Options.SharedBudget. No goroutine waits for
// a token while it holds one, and none holds one while it waits on another
// caller's cache entry, so a shared budget cannot deadlock.
type budget chan struct{}

func newBudget(workers int) budget { return make(budget, max(workers, 1)) }

// spawn runs job under a token of its own on a new goroutine when one is
// free, and otherwise here, under the token the caller already holds — so the
// caller never idles while there is work it could be doing.
func (b budget) spawn(wg *sync.WaitGroup, job func()) {
	select {
	case b <- struct{}{}:
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-b }()
			job()
		}()
	default:
		job()
	}
}

// sweepWarm runs one sweep under a token of b: the warm-up comes from pool's
// entry for base (and stays there, so repeat sweeps of the scenario skip it),
// the points from sweepTrunk. With a nil pool, or a base the pool cannot hold,
// the sweep converges afresh and its trunk flies on the converged engine
// itself, closed when the sweep is over.
func sweepWarm(ctx context.Context, pool *CheckpointPool, base Scenario, pulses []int, b budget) ([]SweepPoint, error) {
	if len(pulses) == 0 {
		return nil, nil
	}
	b <- struct{}{}
	defer func() { <-b }()
	e, err := pool.entry(ctx, base)
	if err != nil {
		return nil, err
	}
	var warm engine
	if e == nil {
		if warm, err = warmUp(ctx, base); err != nil {
			return nil, err
		}
		defer warm.close() // again, if the trunk took it; closing twice is safe
	}
	return sweepTrunk(ctx, e, warm, base, pulses, b)
}

// sweepTrunk computes the points of a sweep; the caller holds one token of b.
// Each distinct pulse count is a job, taken in ascending order, and every
// valid one rides the trunk (see SweepParallel); a negative count fails
// validation and never flies. Each point finishes into a trace log of its own
// (scWithPulses), and the sweep appends them to base.Trace in ascending count
// order after the last point has drained, so the log has one writer.
//
// The trunk begins on warm, a converged engine the sweep owns, unforked — or,
// when warm is nil, from the pool entry e, and then it outlives the sweep. It
// takes the flight parked in e when that stands at or below the smallest
// count the trunk rides, and begins from e's checkpoint otherwise
// (poolEntry.trunk). Before draining the largest count, the sweep offers e a
// fork of the trunk, parked when it is deeper than the flight e holds then. A
// trunk that fails is closed and never parked.
//
// Before each fork, of a branch or of the flight to park, the trunk runs the
// interval after its count's re-announcement (flight.advance), so the copy
// drains on from where the next withdrawal goes and the trunk does not run
// the interval again.
func sweepTrunk(ctx context.Context, e *poolEntry, warm engine, base Scenario, pulses []int, b budget) ([]SweepPoint, error) {
	pr := progressFrom(ctx)
	out := make([]SweepPoint, len(pulses))
	asked := make(map[int][]int, len(pulses)) // pulse count → indices of out
	for i, n := range pulses {
		out[i].Pulses = n
		asked[n] = append(asked[n], i)
		pr.pointQueued(n)
	}
	counts := make([]int, 0, len(asked))
	for n := range asked {
		counts = append(counts, n)
	}
	slices.Sort(counts)
	// settle and runPoint are called from several goroutines, each for a
	// count of its own: they touch disjoint elements of out.
	settle := func(n int, res *Result, err error) {
		if err != nil {
			err = &pointError{n, err}
		}
		for _, i := range asked[n] {
			out[i].Result, out[i].Err = res, err
			pr.pointDone(out[i])
		}
	}
	runPoint := func(f *flight, sc Scenario) {
		n := sc.Pulses
		if ctx.Err() != nil {
			// Mark skipped points instead of running them; the sweep still
			// reports every already-finished Result.
			settle(n, nil, ctxErr(ctx))
			return
		}
		res, err := isolate(base, n, func() (*Result, error) { return pointRunner(ctx, f, sc) })
		settle(n, res, err)
	}

	logs := make([]*trace.Log, len(counts)) // each point's trace, by count
	var wg sync.WaitGroup
	var trunk *flight
	var trunkErr error // once set, fails every count the trunk had not reached
	for k, n := range counts {
		if n < 0 {
			settle(n, nil, scWithPulses(base, n).validate())
			continue
		}
		if trunkErr == nil {
			_, trunkErr = isolate(base, n, func() (*Result, error) {
				if ctx.Err() != nil {
					return nil, ctxErr(ctx)
				}
				if trunk == nil {
					var err error
					sc := scWithPulses(base, n)
					if warm != nil {
						trunk, err = begin(sc, warm)
					} else {
						trunk, err = e.trunk(sc)
					}
					if err != nil {
						return nil, err
					}
				}
				if err := trunk.pulseTo(ctx, n); err != nil {
					return nil, err
				}
				// A copy is taken at n when n is not the last count (its
				// point's branch) or when the pool may park one. Advancing
				// the last count otherwise costs nothing: its drain runs the
				// interval anyway.
				if k < len(counts)-1 || e != nil {
					return nil, trunk.advance(ctx)
				}
				return nil, nil
			})
		}
		if trunkErr != nil {
			settle(n, nil, trunkErr)
			continue
		}
		sc := scWithPulses(base, n)
		logs[k] = sc.Trace
		if k == len(counts)-1 {
			e.park(trunk)
			runPoint(trunk, sc)
			break
		}
		branch, err := trunk.fork()
		if err != nil {
			settle(n, nil, err)
			continue
		}
		b.spawn(&wg, func() {
			defer branch.close() // a runner that fails before running it leaves it open
			runPoint(branch, sc)
		})
	}
	if trunk != nil {
		trunk.close() // again, if its last point ran it; closing twice is safe
	}
	wg.Wait()
	for _, log := range logs {
		if log != nil {
			appendTrace(base.Trace, log)
		}
	}
	errs := make([]error, 0, len(pulses))
	for i := range out {
		if out[i].Err != nil {
			errs = append(errs, out[i].Err)
		}
	}
	return out, errors.Join(errs...)
}

// pointError is a sweep point's failure, named by its pulse count. A single
// run, being a sweep of that one count, reports the error it wraps instead.
type pointError struct {
	pulses int
	err    error
}

func (e *pointError) Error() string {
	return fmt.Sprintf("experiment: sweep n=%d: %v", e.pulses, e.err)
}

func (e *pointError) Unwrap() error { return e.err }

// isolate calls run — the simulation of base at one pulse count, or a stretch
// of it — with panic isolation: a panic is recovered into a *PanicError
// (quarantined stack and the point's fingerprint attached) so the process —
// and the other points — survive it.
func isolate(base Scenario, pulses int, run func() (*Result, error)) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			fp, _ := scWithPulses(base, pulses).Fingerprint()
			res, err = nil, &PanicError{Value: r, Fingerprint: fp, Stack: stackTrace()}
		}
	}()
	return run()
}

// scWithPulses specializes the base scenario to one pulse count, giving a
// traced scenario a log of its own, so no log is shared between workers. (No
// impairment model is shared either: a flight installs forks of it.)
func scWithPulses(base Scenario, pulses int) Scenario {
	sc := base
	sc.Pulses = pulses
	if sc.Trace != nil {
		sc.Trace = trace.NewLog(math.MaxInt)
	}
	return sc
}

// appendTrace appends src's events to dst, in order and under dst's bound.
func appendTrace(dst, src *trace.Log) {
	for _, ev := range src.Events() {
		dst.Append(ev)
	}
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
