// Package lru is a keyed singleflight cache bounded by total weight, with the
// one policy of experiment's run cache and snapshot pool and rfdd's graph
// memo:
//
//   - the first Claim of a key owns its build, and every other caller waits
//     on that build or on its own context;
//   - a failed build leaves the cache before its waiters are released, so no
//     error is cached;
//   - an entry still being built weighs nothing and is never evicted;
//   - a resolved entry takes its weight at the front of the LRU, and a hit or
//     a Reweigh moves it to the front again;
//   - resolved entries are then evicted from the back until the total fits
//     the bound, the newest too when it alone does not fit. An evicted entry
//     keeps its value for whoever holds it;
//   - the optional on-evict callback runs once per evicted value, on the
//     goroutine whose call evicted it, after the cache's lock is released.
package lru

import (
	"context"
	"errors"
	"sync"
)

// errBuildPanicked is what the waiters of a Get whose build panicked see.
var errBuildPanicked = errors.New("lru: the build panicked")

// Entry is one key's slot: in flight until its owner resolves it, then
// resident until it is evicted.
type Entry[K comparable, V any] struct {
	key        K
	done       chan struct{} // closed once val and err are set
	val        V
	err        error
	weight     int64
	prev, next *Entry[K, V] // on the cache's ring; nil unless resident
}

// Key returns the entry's key.
func (e *Entry[K, V]) Key() K { return e.key }

// Resolved reports whether the entry's build has ended.
func (e *Entry[K, V]) Resolved() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// Wait blocks until the entry is resolved or ctx is done, and reports
// whether it was resolved. A resolved entry wins over a done context.
func (e *Entry[K, V]) Wait(ctx context.Context) bool {
	select {
	case <-e.done:
		return true
	case <-ctx.Done():
		return e.Resolved()
	}
}

// Value returns what the build produced, once the entry is resolved.
func (e *Entry[K, V]) Value() (V, error) { return e.val, e.err }

// Stats is a snapshot of a cache's counters and contents.
type Stats struct {
	Hits      uint64 // Claims that found their key in flight or resident
	Misses    uint64 // Claims that owned a build
	Evictions uint64 // resident entries the bound removed
	Resident  int    // resolved entries held
	Building  int    // entries in flight
	Weight    int64  // total weight of the resident entries
}

// Cache maps keys to entries. It is safe for concurrent use.
type Cache[K comparable, V any] struct {
	max     int64
	onEvict func(V)

	mu      sync.Mutex
	entries map[K]*Entry[K, V]
	ring    Entry[K, V] // sentinel: ring.next is the most recently used entry
	stats   Stats
}

// New returns an empty cache that holds at most max total weight, calling
// onEvict (if not nil) with each value it evicts.
func New[K comparable, V any](max int64, onEvict func(V)) *Cache[K, V] {
	c := &Cache[K, V]{max: max, onEvict: onEvict, entries: make(map[K]*Entry[K, V])}
	c.ring.prev, c.ring.next = &c.ring, &c.ring
	return c
}

// Max returns the cache's weight bound.
func (c *Cache[K, V]) Max() int64 { return c.max }

// Stats returns the cache's counters and contents now.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Building = len(c.entries) - s.Resident
	return s
}

// Claim returns key's entry and whether the caller owns its build: true
// exactly once per key until the entry leaves the cache. An owner must
// Resolve the entry on every path, or its waiters wait forever.
func (c *Cache[K, V]) Claim(key K) (e *Entry[K, V], owner bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e = c.entries[key]; e != nil {
		c.stats.Hits++
		if e.next != nil {
			c.placeLocked(e, e.weight) // evicts nothing: the total is unchanged
		}
		return e, false
	}
	e = &Entry[K, V]{key: key, done: make(chan struct{})}
	c.entries[key] = e
	c.stats.Misses++
	return e, true
}

// Resolve ends the build of an entry the caller owns: a failed one (err !=
// nil) leaves the cache, a successful one becomes resident with the given
// weight. Then the entry's waiters are released.
func (c *Cache[K, V]) Resolve(e *Entry[K, V], v V, weight int64, err error) {
	e.val, e.err = v, err
	c.mu.Lock()
	var evicted []V
	if err != nil {
		delete(c.entries, e.key)
	} else {
		evicted = c.placeLocked(e, weight)
	}
	c.mu.Unlock()
	close(e.done)
	for _, old := range evicted {
		c.onEvict(old)
	}
}

// Reweigh gives a resident entry a new weight, which counts as a use. It
// reports whether e was resident; an entry in flight or gone is left alone.
func (c *Cache[K, V]) Reweigh(e *Entry[K, V], weight int64) bool {
	c.mu.Lock()
	resident := e.next != nil
	var evicted []V
	if resident {
		evicted = c.placeLocked(e, weight)
	}
	c.mu.Unlock()
	for _, old := range evicted {
		c.onEvict(old)
	}
	return resident
}

// Get returns key's value: resident, built by a concurrent caller, or built
// now by build, which also returns the value's weight. A caller whose ctx
// ends first gets ctx's error while the build goes on. Should build panic,
// its waiters get an error and the key is built afresh on its next Get.
func (c *Cache[K, V]) Get(ctx context.Context, key K, build func() (V, int64, error)) (V, error) {
	var zero V
	e, owner := c.Claim(key)
	if owner {
		built := false
		defer func() {
			if !built {
				c.Resolve(e, zero, 0, errBuildPanicked)
			}
		}()
		v, weight, err := build()
		built = true
		c.Resolve(e, v, weight, err)
	}
	if !e.Wait(ctx) {
		return zero, ctx.Err()
	}
	return e.Value()
}

// placeLocked gives e the weight at the front of the ring, then evicts from
// the back until the resident weight fits the bound, returning the evicted
// values for the on-evict callback.
func (c *Cache[K, V]) placeLocked(e *Entry[K, V], weight int64) (evicted []V) {
	if e.next != nil {
		c.unlink(e)
	} else {
		c.stats.Resident++
	}
	c.stats.Weight += weight - e.weight
	e.weight = weight
	e.prev, e.next = &c.ring, c.ring.next
	e.prev.next, e.next.prev = e, e
	for c.stats.Weight > c.max && c.ring.prev != &c.ring {
		old := c.ring.prev
		c.unlink(old)
		delete(c.entries, old.key)
		c.stats.Weight -= old.weight
		c.stats.Resident--
		c.stats.Evictions++
		if c.onEvict != nil {
			evicted = append(evicted, old.val)
		}
	}
	return evicted
}

func (c *Cache[K, V]) unlink(e *Entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}
