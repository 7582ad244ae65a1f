package experiment

import (
	"container/list"
	"context"
	"fmt"
	"sync"
)

// DefaultPoolSize is the checkpoint capacity NewCheckpointPool uses when
// given a non-positive bound.
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
// Population is singleflight: concurrent requests for the same key converge
// on one warm-up, with waiters blocking on the owner (or their own context).
// Failed populations are never cached — the entry is removed before waiters
// are released, so the next request retries. Capacity is bounded with LRU
// eviction; eviction only drops the pool's reference, never invalidates a
// checkpoint already handed out (checkpoints are immutable and safe for
// concurrent forking), and entries still being populated are never evicted.
//
// A nil *CheckpointPool is valid and builds a fresh checkpoint per request.
type CheckpointPool struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element // value: *poolEntry
	lru     *list.List               // front = most recently used

	hits, misses, evictions uint64
}

// poolEntry is one singleflight slot: the owner converges the scenario,
// resolves cp/err, then closes done; everyone else waits on done.
type poolEntry struct {
	key      string
	done     chan struct{}
	cp       *Checkpoint
	err      error
	resolved bool // set under the pool mutex before done closes
}

// NewCheckpointPool returns an empty pool holding at most max checkpoints
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
	e := &poolEntry{key: key, done: make(chan struct{})}
	el := p.lru.PushFront(e)
	p.entries[key] = el
	p.misses++
	p.evictLocked()
	p.mu.Unlock()

	cp, err := NewCheckpointContext(ctx, sc)

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
		p.evictLocked()
	}
	p.mu.Unlock()
	close(e.done)
	return cp, err
}

// evictLocked drops least-recently-used resolved entries until the pool fits
// its bound. Entries still populating are skipped: evicting one would let a
// concurrent request start a duplicate warm-up, so the pool instead overflows
// transiently until the population resolves.
func (p *CheckpointPool) evictLocked() {
	over := p.lru.Len() - p.max
	if over <= 0 {
		return
	}
	for el := p.lru.Back(); el != nil && over > 0; {
		prev := el.Prev()
		if e := el.Value.(*poolEntry); e.resolved {
			p.lru.Remove(el)
			delete(p.entries, e.key)
			p.evictions++
			over--
		}
		el = prev
	}
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
// (misses), and how many checkpoints LRU eviction dropped.
func (p *CheckpointPool) Stats() (hits, misses, evictions uint64) {
	if p == nil {
		return 0, 0, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses, p.evictions
}
