package experiment

import (
	"container/list"
	"context"
	"fmt"
	"sync"
)

// DefaultPoolSize is the capacity, in parked engines, NewCheckpointPool uses
// when given a non-positive bound.
const DefaultPoolSize = 16

// CheckpointPool caches converged warm-up checkpoints keyed by the scenario's
// warm-up identity (the SHA-256 fingerprint base — everything but the pulse
// count — plus the engine shard count, since a checkpoint parks
// engine-specific kernel state even though Result fingerprints deliberately
// ignore Shards). A hot scenario served repeatedly skips warm-up entirely:
// the first request converges and parks the snapshot, every later request —
// any pulse count, sweep or single run — forks it (a sweep once, for the one
// flight all its points branch off).
//
// Beside its checkpoint an entry holds at most one parked flight: a never-run
// fork of a sweep's trunk, taken right after the sweep's largest count was
// re-announced. The next sweep of the key whose smallest count is at or past
// that flight's pulses takes it as its own trunk and flaps on from there
// instead of from pulse 0; a sweep that reaches deeper parks a fork of its
// trunk in its place. Every input a flight depends on is part of the key, so
// a parked flight serves any request of the key.
//
// Population is singleflight: concurrent requests for the same key converge
// on one warm-up, with waiters blocking on the owner (or their own context).
// Failed populations are never cached — the entry is removed before waiters
// are released, so the next request retries. Capacity counts parked engines:
// an entry weighs 1, or 2 while it holds a flight. LRU eviction drops whole
// resolved entries, flight included, and never one still being populated. It
// only drops the pool's reference to a checkpoint, never invalidating one
// already handed out (a checkpoint is only ever forked, which is safe
// concurrently); a parked flight belongs to the pool alone until a sweep takes
// it, so eviction closes it. A flight that does not fit after evicting other
// entries is not parked, so a capacity-1 pool holds checkpoints only.
//
// A nil *CheckpointPool is valid and builds a fresh checkpoint per request.
type CheckpointPool struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element // value: *poolEntry
	lru     *list.List               // front = most recently used
	flights int                      // entries holding a parked flight

	hits, misses, evictions, resumes uint64
}

// poolEntry is one singleflight slot: the owner converges the scenario,
// resolves cp/err, then closes done; everyone else waits on done.
type poolEntry struct {
	pool     *CheckpointPool
	key      string
	done     chan struct{}
	cp       *Checkpoint
	err      error
	resolved bool    // set under the pool mutex before done closes
	flight   *flight // parked: never run, owned by the pool (under its mutex)
}

// NewCheckpointPool returns an empty pool holding at most max parked engines
// (DefaultPoolSize when max <= 0).
func NewCheckpointPool(max int) *CheckpointPool {
	if max <= 0 {
		max = DefaultPoolSize
	}
	return &CheckpointPool{
		max:     max,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
}

// poolKey is the warm-up identity: the fingerprint base (topology, ISP,
// config, watch list — everything except the pulse count) plus the shard
// count the checkpoint would be built with. ok is false for scenarios whose
// identity cannot be captured by value (see Scenario.Fingerprint); those
// bypass the pool.
func (s Scenario) poolKey() (string, bool) {
	base, ok := s.fingerprintBase()
	if !ok {
		return "", false
	}
	shards := s.Shards
	if shards <= 1 {
		shards = 1
	}
	return fmt.Sprintf("%s:s%d", base, shards), true
}

// Get returns the pooled checkpoint for sc's warm-up, converging it if no one
// has yet (or if it was evicted). Unpoolable scenarios and a nil pool build a
// fresh checkpoint. The returned Checkpoint is shared — callers only fork it,
// which is safe concurrently.
func (p *CheckpointPool) Get(ctx context.Context, sc Scenario) (*Checkpoint, error) {
	if p == nil {
		return NewCheckpointContext(ctx, sc)
	}
	key, ok := sc.poolKey()
	if !ok {
		return NewCheckpointContext(ctx, sc)
	}
	p.mu.Lock()
	if el, found := p.entries[key]; found {
		e := el.Value.(*poolEntry)
		p.lru.MoveToFront(el)
		p.hits++
		p.mu.Unlock()
		select {
		case <-e.done:
			// Already-parked checkpoint: no warm-up happens (and none is
			// reported) on this request's behalf.
			return e.cp, e.err
		default:
		}
		// A concurrent request is converging this warm-up right now
		// (singleflight). The latency is real for this caller too, so its
		// Progress hook sees the warm-up even though another request runs it.
		pr := progressFrom(ctx)
		pr.warmupStarted()
		select {
		case <-e.done:
			if e.err == nil {
				pr.warmupDone()
			}
			return e.cp, e.err
		case <-ctx.Done():
			return nil, ctxErr(ctx)
		}
	}
	e := &poolEntry{pool: p, key: key, done: make(chan struct{})}
	el := p.lru.PushFront(e)
	p.entries[key] = el
	p.misses++
	p.evictLocked(nil)
	p.mu.Unlock()

	cp, err := NewCheckpointContext(ctx, sc)
	if cp != nil {
		cp.entry = e
	}

	p.mu.Lock()
	e.cp, e.err = cp, err
	e.resolved = true
	if err != nil {
		// No negative caching: a failed (or cancelled) warm-up is removed so
		// the next request retries instead of replaying the error.
		if cur, found := p.entries[key]; found && cur == el {
			p.lru.Remove(el)
			delete(p.entries, key)
		}
	} else {
		p.evictLocked(nil)
	}
	p.mu.Unlock()
	close(e.done)
	return cp, err
}

// evictLocked drops least-recently-used resolved entries other than keep
// until the pool's parked engines fit its bound, closing the flights they
// hold (never run, so closing one waits for nothing). Entries still
// populating are skipped: evicting one would let a concurrent request start a
// duplicate warm-up, so the pool instead overflows transiently until the
// population resolves.
func (p *CheckpointPool) evictLocked(keep *poolEntry) {
	for el := p.lru.Back(); el != nil && p.lru.Len()+p.flights > p.max; {
		prev := el.Prev()
		if e := el.Value.(*poolEntry); e.resolved && e != keep {
			p.lru.Remove(el)
			delete(p.entries, e.key)
			p.evictions++
			if e.flight != nil {
				e.flight.close()
				e.flight = nil
				p.flights--
			}
		}
		el = prev
	}
}

// take hands the caller the entry's parked flight if it stands at or below
// pulse n, and nil otherwise (or for a nil entry). The caller owns the flight
// from then on, and the entry holds none until a sweep parks another.
func (e *poolEntry) take(n int) *flight {
	if e == nil {
		return nil
	}
	p := e.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	f := e.flight
	if f == nil || f.pulses > n {
		return nil
	}
	e.flight = nil
	p.flights--
	p.resumes++
	return f
}

// park offers the entry a fork of trunk, a sweep's flight standing right after
// its largest count's re-announcement. The fork replaces the entry's flight
// when it is deeper (a flight at pulse 0 is never parked: the checkpoint
// already stands there) and fits the bound after evicting other entries; the
// entry's own checkpoint stays. Parking only saves later sweeps work, so a
// fork that fails or is not wanted leaves the entry as it was. Nil-safe.
func (e *poolEntry) park(trunk *flight) {
	if e == nil || trunk.pulses == 0 {
		return
	}
	p := e.pool
	p.mu.Lock()
	want := p.wantsLocked(e, trunk.pulses)
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
	if !p.wantsLocked(e, f.pulses) { // a concurrent sweep parked or evicted meanwhile
		f.close()
		return
	}
	if e.flight != nil {
		e.flight.close()
	} else {
		p.flights++
	}
	e.flight = f
	p.evictLocked(e)
}

// wantsLocked reports whether e, still pooled, would park a flight at the
// given pulse count: one deeper than its own, that fits the bound once every
// other resolved entry may be evicted.
func (p *CheckpointPool) wantsLocked(e *poolEntry, pulses int) bool {
	if el, found := p.entries[e.key]; !found || el.Value != e {
		return false
	}
	if e.flight != nil && e.flight.pulses >= pulses {
		return false
	}
	pinned := 2 // e, with its flight
	for el := p.lru.Front(); el != nil; el = el.Next() {
		if o := el.Value.(*poolEntry); !o.resolved {
			pinned++
		}
	}
	return pinned <= p.max
}

// Len returns the number of pooled (including populating) entries.
func (p *CheckpointPool) Len() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lru.Len()
}

// Stats reports how many Get calls found a pooled warm-up (hits — including
// waiters that joined an in-flight population), how many converged one
// (misses), and how many entries LRU eviction dropped.
func (p *CheckpointPool) Stats() (hits, misses, evictions uint64) {
	if p == nil {
		return 0, 0, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses, p.evictions
}

// Flights reports how many entries hold a parked sweep flight now, and how
// many sweeps have resumed one instead of flapping from pulse 0.
func (p *CheckpointPool) Flights() (parked int, resumes uint64) {
	if p == nil {
		return 0, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flights, p.resumes
}
