package experiment

import (
	"context"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"rfd/internal/lru"
)

// Fingerprint returns a canonical content hash of everything that determines
// the scenario's Result: the topology (canonical sorted-edge encoding,
// including relationship annotations), the ISP attachment point, every
// protocol configuration scalar, the pulse workload and the seed. Two
// scenarios with equal fingerprints produce byte-identical runs, so a cached
// Result can stand in for a re-run.
//
// ok is false when the scenario's identity cannot be captured by value:
// a per-router damping selector (a function), an attached trace log, an
// impairment model or a fault plan all make the run depend on state outside
// the hashed fields. Such scenarios are never cached.
func (s Scenario) Fingerprint() (key string, ok bool) {
	base, ok := s.fingerprintBase()
	if !ok {
		return "", false
	}
	return fmt.Sprintf("%s:p%d", base, s.Pulses), true
}

// fingerprintBase hashes every run-determining input except the pulse count,
// so a sweep hashes the expensive part (the topology) once per scenario
// rather than once per point.
func (s Scenario) fingerprintBase() (string, bool) {
	if s.Config.DampingSelect != nil || s.Trace != nil || s.Impair != nil ||
		s.Faults != nil {
		return "", false
	}
	if s.Graph == nil {
		return "", false
	}
	// Resumes the graph's memoised encoding digest: only the first key asked
	// of a topology encodes and hashes it.
	h, err := s.Graph.TSVDigest()
	if err != nil {
		return "", false
	}
	interval := s.FlapInterval
	if interval == 0 {
		interval = DefaultFlapInterval
	}
	cfg := s.Config
	// Check does not change the Result's measurements, but a checked run
	// carries a Result.Check report an unchecked one lacks — and a checked
	// figure pass must not be satisfied by unchecked cached Results.
	fmt.Fprintf(h, "isp %d\ninterval %d\ncheck %t\npolicy %d\nrcn %t\nselective %t\nmrai %d\nseed %d\nnoseries %t\n",
		s.ISP, interval, s.Check, cfg.Policy, cfg.EnableRCN,
		cfg.SelectiveDamping, cfg.MRAI, cfg.Seed, s.NoSeries)
	if d := cfg.Damping; d != nil {
		fmt.Fprintf(h, "damping %g %g %g %g %g %d %d\n",
			d.WithdrawalPenalty, d.ReannouncementPenalty, d.AttrChangePenalty,
			d.CutoffThreshold, d.ReuseThreshold, d.HalfLife, d.MaxHoldDown)
	}
	for _, w := range s.Watch {
		fmt.Fprintf(h, "watch %d %d\n", w.Router, w.Peer)
	}
	return hex.EncodeToString(h.Sum(nil)), true
}

// DefaultCacheBytes is the bound, in estimated bytes of resident Results
// (see Result.sizeBytes), that NewRunCache uses. A paper-scale rfdfig pass
// holds about a third of it, so figures never evict; a daemon serving
// distinct requests keeps the most recently used 16 MiB of Results.
const DefaultCacheBytes = 16 << 20

// resultBytes is the size of a Result's own struct.
const resultBytes = int64(unsafe.Sizeof(Result{}))

// sizeBytes estimates the memory a cached Result holds: its struct and the
// backing arrays of its series by capacity. The series dominate — every
// update delivery time is kept — unless the scenario was NoSeries.
func (r *Result) sizeBytes() int64 {
	n := resultBytes + r.Updates.Bytes() + r.Damped.Bytes() + r.NoisyReuseTimes.Bytes()
	for _, tr := range r.PenaltyTraces {
		n += tr.Bytes()
	}
	return n
}

// RunCache deduplicates runs by scenario fingerprint: the first request for
// a fingerprint executes it, concurrent requests for the same fingerprint
// wait for that execution (singleflight), and later requests return the
// cached Result immediately. A run is a sweep of one pulse count, so every
// request — Run or Sweep — claims its points in the one singleflight,
// RunCache.sweep. rfdfig uses one cache across all figures, which
// share scenarios (e.g. the undamped mesh baseline appears in the Eval sweep
// and as Fig 10/15 inputs); rfdd shares one across all requests.
//
// The cache is an internal/lru cache, so no failure (an error, a panic, a
// cancel) is cached and nothing still being computed is evicted. A Result
// weighs its estimated bytes (sizeBytes) against DefaultCacheBytes, and an
// evicted key is claimed afresh by its next request and re-simulated (from
// the pooled warm-up snapshot when a CheckpointPool is layered).
//
// Cached Results are shared between callers and must be treated as
// read-only. Scenarios whose Fingerprint reports ok=false (trace logs,
// impairments, fault plans, damping selectors) bypass the cache and always
// run. A nil *RunCache is valid and bypasses caching entirely.
type RunCache struct {
	results *lru.Cache[string, *Result]

	mu   sync.Mutex
	pool *CheckpointPool

	uncached atomic.Uint64
}

// NewRunCache returns an empty cache bounded by DefaultCacheBytes.
func NewRunCache() *RunCache {
	return newRunCache(DefaultCacheBytes)
}

// newRunCache returns an empty cache bounded by maxBytes.
func newRunCache(maxBytes int64) *RunCache {
	return &RunCache{results: lru.New[string, *Result](maxBytes, nil)}
}

// SetCheckpointPool layers a converged-snapshot pool under the cache (nil
// detaches it): cache misses then fork a pooled warm-up checkpoint instead of
// re-converging from scratch, and resume the sweep trunk an earlier miss
// parked there instead of re-flapping its pulses. Results are identical
// either way — checkpoint and trunk forks are pinned byte-identical to
// from-scratch runs — so the pool is a pure execution optimization, invisible
// to cache keys and cached Results.
func (c *RunCache) SetCheckpointPool(p *CheckpointPool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pool = p
}

// layers returns the layered pool.
func (c *RunCache) layers() *CheckpointPool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pool
}

// Stats reports how many Run/Sweep points were served from cache (hits),
// executed and stored (misses), and executed uncached because the scenario
// has no fingerprint (uncacheable). The next request for a key the byte bound
// evicted counts as a miss.
func (c *RunCache) Stats() (hits, misses, uncacheable uint64) {
	if c == nil {
		return 0, 0, 0
	}
	s := c.results.Stats()
	return s.Hits, s.Misses, c.uncached.Load()
}

// Resident reports the Results held now — how many, and their estimated
// bytes (never above the bound once a request has resolved) — and how many
// the bound has evicted so far.
func (c *RunCache) Resident() (entries int, bytes int64, evictions uint64) {
	if c == nil {
		return 0, 0, 0
	}
	s := c.results.Stats()
	return s.Resident, s.Weight, s.Evictions
}

// finish resolves an owned entry, weighing a fresh Result by its size.
func (c *RunCache) finish(e *lru.Entry[string, *Result], res *Result, err error) {
	var size int64
	if err == nil {
		size = res.sizeBytes()
	}
	c.results.Resolve(e, res, size, err)
}

// run executes the scenario through the cache under a supervising context
// and a token of a budget the caller may share: a fingerprint hit returns the
// cached (shared, read-only) Result, a miss runs and stores it, and
// unfingerprintable scenarios run uncached. It is a sweep of the one count
// sc.Pulses, so it shares the sweep's singleflight, pool, progress reports
// and panic isolation. The error is the point's, without the sweep's
// pulse-count prefix.
func (c *RunCache) run(ctx context.Context, sc Scenario, b budget) (*Result, error) {
	pts, _ := c.sweep(ctx, sc, []int{sc.Pulses}, b)
	if pe, ok := pts[0].Err.(*pointError); ok {
		return nil, pe.err
	}
	return pts[0].Result, pts[0].Err
}

// Sweep is SweepParallelContext through the cache; see SweepContext.
func (c *RunCache) Sweep(base Scenario, pulses []int, workers int) ([]SweepPoint, error) {
	return c.SweepContext(context.Background(), base, pulses, workers)
}

// SweepContext is SweepParallelContext through the cache: points whose
// fingerprint is already cached (or claimed by a concurrent caller) are not
// re-run; only the missing pulse counts execute, as one fork-amortized
// parallel sweep. Failure is per-point exactly as in SweepParallelContext — a
// failed or cancelled point carries its error, is evicted from the cache (so
// a retry re-runs it), and never discards the other points; the joined error
// names each distinct failure once. Unfingerprintable scenarios fall through
// to a plain SweepParallelContext.
func (c *RunCache) SweepContext(ctx context.Context, base Scenario, pulses []int, workers int) ([]SweepPoint, error) {
	return c.sweep(ctx, base, pulses, newBudget(workers))
}

// sweep is SweepContext under a budget the caller may share between sweeps.
// A sweep of a sharded base over several counts is refused before any lookup.
func (c *RunCache) sweep(ctx context.Context, base Scenario, pulses []int, b budget) ([]SweepPoint, error) {
	if err := base.sweepable(pulses); err != nil {
		return nil, err
	}
	if c == nil {
		return sweepWarm(ctx, nil, base, pulses, b)
	}
	baseKey, ok := base.fingerprintBase()
	if !ok {
		c.uncached.Add(uint64(len(pulses)))
		return sweepWarm(ctx, nil, base, pulses, b)
	}
	pr := progressFrom(ctx)
	entries := make([]*lru.Entry[string, *Result], len(pulses))
	// live marks the points this call claimed and will execute itself; every
	// other point resolves without running here (a cache hit, or a concurrent
	// caller's execution) and reports CacheHit instead of the live
	// Queued/Done pair.
	live := make([]bool, len(pulses))
	var missPulses []int
	var missEntries []*lru.Entry[string, *Result]
	for i, n := range pulses {
		e, owner := c.results.Claim(fmt.Sprintf("%s:p%d", baseKey, n))
		entries[i] = e
		if !owner {
			continue
		}
		live[i] = true
		missPulses = append(missPulses, n)
		missEntries = append(missEntries, e)
	}
	if len(missPulses) > 0 {
		c.runMisses(ctx, base, missPulses, missEntries, b)
	}
	out := make([]SweepPoint, len(pulses))
	for i, e := range entries {
		out[i].Pulses = pulses[i]
		// A resolved entry wins over a tripped context: after a mid-flight
		// cancel both may be ready, and the entry's own outcome (a result, a
		// panic, the point-level cancel) is the truer diagnosis.
		if e.Wait(ctx) {
			out[i].Result, out[i].Err = e.Value()
		} else {
			out[i].Err = ctxErr(ctx)
		}
		if !live[i] {
			pr.cacheHit(out[i])
		}
	}
	return out, joinErrors(out)
}

// runMisses sweeps the points this call claimed and resolves their entries
// with the points' outcomes — or via defer, so a panic on the sweep path
// unblocks concurrent waiters instead of hanging them, with a *PanicError
// named by its pulse count.
func (c *RunCache) runMisses(ctx context.Context, base Scenario, pulses []int, entries []*lru.Entry[string, *Result], b budget) {
	unproduced := func(j int) error {
		return fmt.Errorf("experiment: sweep did not produce n=%d", pulses[j])
	}
	swept := false
	defer func() {
		if swept {
			return
		}
		r := recover() // nil when the sweep's goroutine exits without panicking
		for j, e := range entries {
			err := unproduced(j)
			if r != nil {
				err = &pointError{pulses[j], &PanicError{Value: r, Fingerprint: e.Key(), Stack: stackTrace()}}
			}
			c.finish(e, nil, err)
		}
		if r != nil {
			panic(r)
		}
	}()
	pts, _ := sweepWarm(ctx, c.layers(), base, pulses, b)
	swept = true
	for j, e := range entries {
		res, err := pts[j].Result, pts[j].Err
		if res == nil && err == nil {
			err = unproduced(j)
		}
		c.finish(e, res, err)
	}
}
