package experiment

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"rfd/internal/lru"
)

// DefaultPoolSize is the capacity, in parked engines, NewCheckpointPool uses
// when given a non-positive bound.
const DefaultPoolSize = 16

// CheckpointPool caches converged warm-up checkpoints keyed by the scenario's
// warm-up identity (the SHA-256 fingerprint base — everything but the pulse
// count). A hot scenario served repeatedly skips warm-up entirely:
// the first request converges and parks the engine, every later request —
// any pulse count, sweep or single run — forks it (a sweep once, for the one
// flight all its points branch off).
//
// A pooled Checkpoint is the pool's entry: beside its engine it holds at most
// one parked flight, a never-run fork of a sweep's trunk, taken after the
// sweep's largest count was re-announced and the interval after it ran
// (unless the scenario is watched: see flight.advance). The next sweep of the
// key whose smallest count is at or past that flight's pulses takes it as its
// own trunk and flaps on from there instead of from pulse 0; a sweep that
// reaches deeper parks a fork of its trunk in its place. Every input a flight
// depends on is part of the key, so a parked flight serves any sweep of the
// key.
//
// The pool is an internal/lru cache of checkpoints whose capacity counts
// parked engines: a checkpoint weighs 1, or 2 while it holds a flight.
// Eviction closes the flight, which the checkpoint alone owns, but not the
// checkpoint's engine, which callers may still be forking.
//
// A checkpoint parks a sequential engine, so a sharded scenario (Shards > 1)
// has no pool key: a RunCache runs it on a fresh engine, and Get refuses it.
// A nil *CheckpointPool is valid and builds a fresh checkpoint per request.
type CheckpointPool struct {
	cache *lru.Cache[string, *Checkpoint]

	// mu guards every checkpoint's flight. It is held around each cache call
	// that can evict, so the on-evict callback runs under it.
	mu      sync.Mutex
	resumes atomic.Uint64
}

// NewCheckpointPool returns an empty pool holding at most max parked engines
// (DefaultPoolSize when max <= 0).
func NewCheckpointPool(max int) *CheckpointPool {
	if max <= 0 {
		max = DefaultPoolSize
	}
	p := &CheckpointPool{}
	p.cache = lru.New[string](int64(max), (*Checkpoint).evicted)
	return p
}

// evicted closes the flight of a checkpoint the pool dropped; a never-run
// flight closes at once. It runs under pool.mu.
func (c *Checkpoint) evicted() {
	if c.flight != nil {
		c.flight.close()
		c.flight = nil
	}
}

// poolKey is the warm-up identity: the fingerprint base (topology, ISP,
// config, watch list — everything except the pulse count). ok is false for a
// sharded scenario and for scenarios whose identity cannot be captured by
// value (see Scenario.Fingerprint); those bypass the pool.
func (s Scenario) poolKey() (string, bool) {
	if s.Shards > 1 {
		return "", false
	}
	return s.fingerprintBase()
}

// Get returns the pooled checkpoint for sc's warm-up, converging it if no one
// has yet (or if it was evicted). Unpoolable scenarios and a nil pool build a
// fresh checkpoint; a sharded scenario is refused. The returned Checkpoint is
// shared — callers only fork it, which is safe concurrently.
func (p *CheckpointPool) Get(ctx context.Context, sc Scenario) (*Checkpoint, error) {
	if err := sc.checkpointable("CheckpointPool.Get"); err != nil {
		return nil, err
	}
	switch c, err := p.entry(ctx, sc); {
	case err != nil:
		return nil, err
	case c != nil:
		return c, nil
	}
	return newCheckpoint(ctx, sc)
}

// entry returns the pooled checkpoint of sc's warm-up, converging it if no
// one has yet (or if it was evicted), or nil for a nil pool and an unpoolable
// scenario.
func (p *CheckpointPool) entry(ctx context.Context, sc Scenario) (c *Checkpoint, err error) {
	if p == nil {
		return nil, nil
	}
	key, ok := sc.poolKey()
	if !ok {
		return nil, nil
	}
	slot, owner := p.cache.Claim(key)
	if !owner {
		// A warm-up a concurrent request is converging right now costs this
		// caller the wait too, so its Progress hook sees it; a parked one
		// reports nothing.
		if !slot.Resolved() {
			pr := progressFrom(ctx)
			pr.warmupStarted()
			if !slot.Wait(ctx) {
				return nil, ctxErr(ctx)
			}
			if _, err := slot.Value(); err == nil {
				pr.warmupDone()
			}
		}
		return slot.Value()
	}
	// Resolved from a defer, as lru.Cache.Get does: a warm-up that panics
	// still releases its waiters and frees the key for the next claim.
	err = errWarmUpPanicked
	defer func() {
		p.mu.Lock()
		p.cache.Resolve(slot, c, 1, err)
		p.mu.Unlock()
	}()
	if c, err = newCheckpoint(ctx, sc); err == nil {
		c.pool, c.slot = p, slot
	}
	return c, err
}

// errWarmUpPanicked is what the waiters of a pooled warm-up that panicked see.
var errWarmUpPanicked = errors.New("experiment: the pooled warm-up panicked")

// take hands the caller the checkpoint's parked flight if it stands at or
// below pulse n, and nil otherwise. The caller owns the flight from then on,
// and the checkpoint holds none until a sweep parks another.
func (c *Checkpoint) take(n int) *flight {
	p := c.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	f := c.flight
	if f == nil || f.pulses > n {
		return nil
	}
	c.flight = nil
	p.resumes.Add(1)
	p.cache.Reweigh(c.slot, 1)
	return f
}

// trunk begins the flight of sc a sweep's points branch off, n being the
// smallest count it is to reach. The flight parked in the pooled checkpoint,
// when it stands at or below n, is taken as it stands — no fork — and flies
// on from there: every input it depends on is part of the pool key;
// otherwise the trunk begins from the checkpoint's engine.
func (c *Checkpoint) trunk(sc Scenario, n int) (*flight, error) {
	if f := c.take(n); f != nil {
		return f, nil
	}
	return c.begin(sc)
}

// park offers the pooled checkpoint a fork of trunk, a sweep's flight
// standing at its largest count (after the interval that follows it: see
// flight.advance). The fork replaces the checkpoint's flight when it is
// deeper (a flight at pulse 0 is never parked: the engine already stands
// there) and the checkpoint is still pooled; otherwise, or if the fork fails,
// the checkpoint stays as it was. A nil checkpoint parks nothing.
func (c *Checkpoint) park(trunk *flight) {
	if c == nil || trunk.pulses == 0 {
		return
	}
	p := c.pool
	p.mu.Lock()
	want := p.wantsLocked(c, trunk.pulses)
	p.mu.Unlock()
	if !want {
		return
	}
	f, err := trunk.fork() // outside the lock: a fork copies a whole engine
	if err != nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// A concurrent sweep may have parked deeper, or evicted c, meanwhile.
	if !p.wantsLocked(c, f.pulses) || !p.cache.Reweigh(c.slot, 2) {
		f.close()
		return
	}
	if c.flight != nil {
		c.flight.close()
	}
	c.flight = f
}

// wantsLocked reports whether c would park a flight at the given pulse count:
// one deeper than its own, in a pool that has room for a checkpoint with a
// flight. Whether c is still pooled is Reweigh's to say.
func (p *CheckpointPool) wantsLocked(c *Checkpoint, pulses int) bool {
	return (c.flight == nil || c.flight.pulses < pulses) && p.cache.Max() >= 2
}

// Len returns the number of pooled (including populating) entries.
func (p *CheckpointPool) Len() int {
	if p == nil {
		return 0
	}
	s := p.cache.Stats()
	return s.Resident + s.Building
}

// Stats reports how many Get calls found a pooled warm-up (hits — including
// waiters that joined an in-flight population), how many converged one
// (misses), and how many entries LRU eviction dropped.
func (p *CheckpointPool) Stats() (hits, misses, evictions uint64) {
	if p == nil {
		return 0, 0, 0
	}
	s := p.cache.Stats()
	return s.Hits, s.Misses, s.Evictions
}

// Flights reports how many checkpoints hold a parked sweep flight now, and how
// many sweeps have resumed one instead of flapping from pulse 0.
func (p *CheckpointPool) Flights() (parked int, resumes uint64) {
	if p == nil {
		return 0, 0
	}
	s := p.cache.Stats() // a resident checkpoint weighs 1, plus 1 for a flight
	return int(s.Weight) - s.Resident, p.resumes.Load()
}
