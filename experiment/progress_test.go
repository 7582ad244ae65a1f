package experiment

import (
	"context"
	"strings"
	"sync"
	"testing"

	"rfd/topology"
)

// progressRecorder collects every hook invocation, concurrency-safe (the
// sweep's worker pool fires PointDone from several goroutines).
type progressRecorder struct {
	mu            sync.Mutex
	warmupStarted int
	warmupDone    int
	queued        []int
	started       []int // points whose PointDone carries a Result: they ran
	done          []SweepPoint
	cached        []SweepPoint
}

func (r *progressRecorder) hook() *Progress {
	return &Progress{
		WarmupStarted: func() { r.mu.Lock(); r.warmupStarted++; r.mu.Unlock() },
		WarmupDone:    func() { r.mu.Lock(); r.warmupDone++; r.mu.Unlock() },
		PointQueued:   func(n int) { r.mu.Lock(); r.queued = append(r.queued, n); r.mu.Unlock() },
		PointDone: func(p SweepPoint) {
			r.mu.Lock()
			r.done = append(r.done, p)
			if p.Result != nil {
				r.started = append(r.started, p.Pulses)
			}
			r.mu.Unlock()
		},
		CacheHit: func(p SweepPoint) { r.mu.Lock(); r.cached = append(r.cached, p); r.mu.Unlock() },
	}
}

func progressScenario(t *testing.T) Scenario {
	t.Helper()
	g, err := topology.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	return Scenario{Graph: g, ISP: 0, Config: o.dampingConfig()}
}

// TestSweepProgressEvents pins the live-sweep lifecycle: one warm-up pair,
// then Queued/Done exactly once per point, Done carrying the Result.
func TestSweepProgressEvents(t *testing.T) {
	rec := &progressRecorder{}
	ctx := WithProgress(context.Background(), rec.hook())
	pulses := []int{0, 1, 2}
	pts, err := SweepParallelContext(ctx, progressScenario(t), pulses, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rec.warmupStarted != 1 || rec.warmupDone != 1 {
		t.Fatalf("warm-up events = %d started / %d done, want 1/1", rec.warmupStarted, rec.warmupDone)
	}
	if len(rec.queued) != len(pulses) || len(rec.done) != len(pulses) {
		t.Fatalf("point events = %d queued / %d done, want %d each",
			len(rec.queued), len(rec.done), len(pulses))
	}
	if len(rec.cached) != 0 {
		t.Fatalf("uncached sweep reported %d cache hits", len(rec.cached))
	}
	seen := map[int]bool{}
	for _, p := range rec.done {
		if p.Err != nil || p.Result == nil {
			t.Fatalf("PointDone n=%d without a result: %+v", p.Pulses, p)
		}
		seen[p.Pulses] = true
	}
	for i, n := range pulses {
		if !seen[n] {
			t.Fatalf("no PointDone for n=%d", n)
		}
		if pts[i].Pulses != n {
			t.Fatalf("sweep output reordered: %+v", pts)
		}
	}
}

// TestSweepProgressReportsFailedPoints: a failing point still reports
// PointDone, carrying its error.
func TestSweepProgressReportsFailedPoints(t *testing.T) {
	rec := &progressRecorder{}
	ctx := WithProgress(context.Background(), rec.hook())
	_, err := SweepParallelContext(ctx, progressScenario(t), []int{0, -1}, 1)
	if err == nil {
		t.Fatal("negative pulse count did not fail")
	}
	var failed int
	for _, p := range rec.done {
		if p.Err != nil {
			failed++
		}
	}
	if len(rec.done) != 2 || failed != 1 {
		t.Fatalf("done events = %d (%d failed), want 2 with 1 failure", len(rec.done), failed)
	}
}

// TestSweepContextProgressCacheHits pins the cache-vs-live distinction: the
// first sweep is all live points, a repeat of the same request is all
// CacheHit — no warm-up, nothing queued.
func TestSweepContextProgressCacheHits(t *testing.T) {
	base := progressScenario(t)
	cache := NewRunCache()
	pulses := []int{0, 1, 2}

	first := &progressRecorder{}
	if _, err := cache.SweepContext(WithProgress(context.Background(), first.hook()), base, pulses, 2); err != nil {
		t.Fatal(err)
	}
	if len(first.done) != 3 || len(first.cached) != 0 {
		t.Fatalf("first sweep events = %d live / %d cached, want 3/0", len(first.done), len(first.cached))
	}

	second := &progressRecorder{}
	if _, err := cache.SweepContext(WithProgress(context.Background(), second.hook()), base, pulses, 2); err != nil {
		t.Fatal(err)
	}
	if len(second.cached) != 3 || len(second.done) != 0 || len(second.queued) != 0 {
		t.Fatalf("repeat sweep events = %d cached / %d live / %d queued, want 3/0/0",
			len(second.cached), len(second.done), len(second.queued))
	}
	if second.warmupStarted != 0 {
		t.Fatalf("repeat sweep ran %d warm-ups, want 0", second.warmupStarted)
	}
	for _, p := range second.cached {
		if p.Err != nil || p.Result == nil {
			t.Fatalf("cache hit n=%d without a result", p.Pulses)
		}
	}
}

// TestPoolWaiterSeesWarmup: a request whose warm-up is served by a pooled
// checkpoint that is already resolved reports no warm-up events — the latency
// it would make visible does not exist.
func TestPoolProgressSkipsParkedWarmup(t *testing.T) {
	base := progressScenario(t)
	pool := NewCheckpointPool(4)
	cache := NewRunCache()
	cache.SetCheckpointPool(pool)

	first := &progressRecorder{}
	if _, err := cache.SweepContext(WithProgress(context.Background(), first.hook()), base, []int{0, 1}, 2); err != nil {
		t.Fatal(err)
	}
	if first.warmupStarted != 1 || first.warmupDone != 1 {
		t.Fatalf("first sweep warm-up events = %d/%d, want 1/1", first.warmupStarted, first.warmupDone)
	}

	// Fresh pulse counts: result-cache misses, but the warm-up is parked.
	second := &progressRecorder{}
	if _, err := cache.SweepContext(WithProgress(context.Background(), second.hook()), base, []int{2, 3}, 2); err != nil {
		t.Fatal(err)
	}
	if second.warmupStarted != 0 || second.warmupDone != 0 {
		t.Fatalf("pooled sweep warm-up events = %d/%d, want 0/0 (snapshot was parked)",
			second.warmupStarted, second.warmupDone)
	}
	if len(second.done) != 2 {
		t.Fatalf("pooled sweep live points = %d, want 2", len(second.done))
	}
}

// TestUnhookedSweepUnchanged: without WithProgress the pipeline takes the
// pre-hook path — a plain context reports nothing and the sweep succeeds.
func TestUnhookedSweepUnchanged(t *testing.T) {
	pts, err := SweepParallelContext(context.Background(), progressScenario(t), []int{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[1].Result == nil {
		t.Fatalf("unhooked sweep = %+v", pts)
	}
	if progressFrom(context.Background()) != nil {
		t.Fatal("progressFrom on a bare context is non-nil")
	}
}

// TestTextProgress drives the CLI feed through a real cached sweep and checks
// the line shapes for live, warm-up and cached events.
func TestTextProgress(t *testing.T) {
	base := progressScenario(t)
	cache := NewRunCache()
	var buf strings.Builder
	var mu sync.Mutex
	w := &lockedWriter{mu: &mu, w: &buf}
	ctx := WithProgress(context.Background(), TextProgress(w))
	if _, err := cache.SweepContext(ctx, base, []int{0, 1}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.SweepContext(ctx, base, []int{1}, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"progress: warm-up started",
		"progress: warm-up done",
		"progress: n=1 done",
		"progress: n=1 cached",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("TextProgress output missing %q:\n%s", want, out)
		}
	}
}

// lockedWriter guards a strings.Builder for concurrent hook writes.
type lockedWriter struct {
	mu *sync.Mutex
	w  *strings.Builder
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
