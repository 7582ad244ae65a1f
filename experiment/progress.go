package experiment

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"
)

// Progress observes the sweep pipeline as it executes: the shared warm-up
// (the dominant latency of a small sweep), each point's lifecycle, and —
// through RunCache.SweepContext — whether a point was computed live or served
// from cache. A single run (Run, RunContext) is a sweep of one count
// and reports the same way: its warm-up and its one point, or a CacheHit when
// the cache served it. CheckpointPool.Get reports the warm-up it runs or
// waits for; Checkpoint.Run takes no context and reports nothing. Every
// field is optional; a nil field (or a nil *Progress) is simply not called,
// and an unhooked sweep takes the exact same path as before the hook existed.
//
// The hook rides on the request's context (WithProgress), not on the
// Scenario, so it is invisible to fingerprints and caching: two requests for
// the same scenario — one streaming progress, one not — share cache entries
// and checkpoints. That also makes it singleflight-safe: a caller whose
// points resolve from another request's in-flight execution sees them as
// CacheHit on its own hook, while the owning request's hook sees the live
// PointQueued/PointDone events. Callbacks may fire concurrently from sweep
// worker goroutines; implementations must be safe for concurrent use.
type Progress struct {
	// WarmupStarted fires when a warm-up (convergence) phase begins on this
	// request's behalf — either run directly or awaited from a concurrent
	// request populating the shared checkpoint pool. A request whose warm-up
	// is already pooled fires neither warm-up hook.
	WarmupStarted func()
	// WarmupDone fires when that warm-up completes successfully.
	WarmupDone func()
	// PointQueued fires once per pulse count when the sweep enqueues it for
	// live execution (cache-served points are never queued).
	PointQueued func(pulses int)
	// PointDone fires when a live point settles, successfully or not: the
	// SweepPoint carries the Result or the error (including typed
	// cancellation for points skipped after the context tripped). Every
	// queued point reports PointDone exactly once, after its PointQueued, and
	// every requested count gets exactly one PointDone or CacheHit: a sweep
	// whose warm-up (or its wait for a pooled one) fails queues its points
	// and settles each with that error.
	PointDone func(SweepPoint)
	// CacheHit fires instead of the Queued/Done pair for a point served
	// without running: a run-cache hit, or a point resolved by a concurrent
	// request's execution (singleflight).
	CacheHit func(SweepPoint)
}

// progressKey carries a *Progress on a context.
type progressKey struct{}

// WithProgress returns a context whose sweeps, runs and pooled warm-ups
// report to p. Passing nil returns ctx unchanged.
func WithProgress(ctx context.Context, p *Progress) context.Context {
	if p == nil {
		return ctx
	}
	return context.WithValue(ctx, progressKey{}, p)
}

// progressFrom extracts the context's Progress hook (nil when absent — the
// nil-safe fire methods below make that the zero-cost default).
func progressFrom(ctx context.Context) *Progress {
	p, _ := ctx.Value(progressKey{}).(*Progress)
	return p
}

func (p *Progress) warmupStarted() {
	if p != nil && p.WarmupStarted != nil {
		p.WarmupStarted()
	}
}

func (p *Progress) warmupDone() {
	if p != nil && p.WarmupDone != nil {
		p.WarmupDone()
	}
}

func (p *Progress) pointQueued(pulses int) {
	if p != nil && p.PointQueued != nil {
		p.PointQueued(pulses)
	}
}

func (p *Progress) pointDone(pt SweepPoint) {
	if p != nil && p.PointDone != nil {
		p.PointDone(pt)
	}
}

func (p *Progress) cacheHit(pt SweepPoint) {
	if p != nil && p.CacheHit != nil {
		p.CacheHit(pt)
	}
}

// TextProgress returns a Progress that prints one human-readable line per
// event to w — the live per-point feed behind the CLIs' -progress flag.
// Writes are serialized internally, so the hook is safe for the sweep's
// concurrent workers; w itself is only written under the hook's lock.
func TextProgress(w io.Writer) *Progress {
	var mu sync.Mutex
	var queued, done int
	var warmStart time.Time
	return &Progress{
		WarmupStarted: func() {
			mu.Lock()
			defer mu.Unlock()
			warmStart = time.Now()
			fmt.Fprintf(w, "progress: warm-up started\n")
		},
		WarmupDone: func() {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(w, "progress: warm-up done in %v\n",
				time.Since(warmStart).Round(time.Millisecond))
		},
		PointQueued: func(int) {
			mu.Lock()
			defer mu.Unlock()
			queued++
		},
		PointDone: func(pt SweepPoint) {
			mu.Lock()
			defer mu.Unlock()
			done++
			if pt.Err != nil {
				fmt.Fprintf(w, "progress: n=%d failed (%d/%d): %v\n", pt.Pulses, done, queued, pt.Err)
				return
			}
			fmt.Fprintf(w, "progress: n=%d done (%d/%d): conv=%.0fs msgs=%d damped=%d\n",
				pt.Pulses, done, queued,
				pt.Result.ConvergenceTime.Seconds(), pt.Result.MessageCount, pt.Result.MaxDamped)
		},
		CacheHit: func(pt SweepPoint) {
			mu.Lock()
			defer mu.Unlock()
			if pt.Err != nil {
				fmt.Fprintf(w, "progress: n=%d failed (cached claim): %v\n", pt.Pulses, pt.Err)
				return
			}
			fmt.Fprintf(w, "progress: n=%d cached: conv=%.0fs msgs=%d damped=%d\n",
				pt.Pulses, pt.Result.ConvergenceTime.Seconds(), pt.Result.MessageCount, pt.Result.MaxDamped)
		},
	}
}
