package lru

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// TestGetSingleflight: N concurrent callers of one key mean one build, N−1
// hits and the same value for all. The build blocks until every other caller
// has claimed the key, so each of them really waits on it.
func TestGetSingleflight(t *testing.T) {
	const callers = 8
	c := New[string, *int](4, nil)
	release := make(chan struct{})
	builds := 0
	build := func() (*int, int64, error) {
		builds++
		<-release
		v := 42
		return &v, 1, nil
	}
	got := make([]*int, callers)
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Get(context.Background(), "k", build)
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}()
	}
	for s := c.Stats(); s.Hits+s.Misses < callers; s = c.Stats() {
		runtime.Gosched() // every caller claims before the build is released
	}
	if s := c.Stats(); s.Building != 1 || s.Resident != 0 || s.Weight != 0 {
		t.Fatalf("while building: %+v, want one entry in flight weighing nothing", s)
	}
	close(release)
	wg.Wait()
	if s := c.Stats(); builds != 1 || s.Misses != 1 || s.Hits != callers-1 || s.Resident != 1 {
		t.Fatalf("%d builds, stats %+v; want 1 build, 1 miss, %d hits", builds, s, callers-1)
	}
	for i, v := range got {
		if v != got[0] || *v != 42 {
			t.Fatalf("caller %d got %p, caller 0 %p", i, v, got[0])
		}
	}
}

// TestGetFailureNotCached: a failed build reaches every waiter and leaves
// nothing behind, so the next Get builds again; a panicking build does the
// same and goes on panicking in its owner.
func TestGetFailureNotCached(t *testing.T) {
	c := New[string, int](4, nil)
	boom := errors.New("boom")
	if _, err := c.Get(context.Background(), "k", func() (int, int64, error) { return 0, 1, boom }); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the build's panic did not reach its owner")
			}
		}()
		c.Get(context.Background(), "k", func() (int, int64, error) { panic("build") })
	}()
	if s := c.Stats(); s.Resident+s.Building != 0 || s.Misses != 2 {
		t.Fatalf("after two failed builds: %+v, want nothing held and 2 misses", s)
	}
	if v, err := c.Get(context.Background(), "k", func() (int, int64, error) { return 7, 1, nil }); v != 7 || err != nil {
		t.Fatalf("retry = %d, %v; want 7", v, err)
	}

	release := make(chan struct{})
	go func() {
		defer func() { recover() }()
		c.Get(context.Background(), "p", func() (int, int64, error) {
			<-release
			panic("build")
		})
	}()
	for c.Stats().Misses < 4 {
		runtime.Gosched() // the owner claims p
	}
	waited := make(chan error)
	go func() {
		_, err := c.Get(context.Background(), "p", nil)
		waited <- err
	}()
	for c.Stats().Hits == 0 {
		runtime.Gosched()
	}
	close(release)
	if err := <-waited; err != errBuildPanicked {
		t.Fatalf("a waiter on a panicking build got %v", err)
	}
}

// TestWaiterHonorsOwnContext: a waiter whose context ends stops waiting,
// and the build goes on for everyone else.
func TestWaiterHonorsOwnContext(t *testing.T) {
	c := New[string, int](4, nil)
	e, _ := c.Claim("k")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Get(ctx, "k", nil); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	c.Resolve(e, 3, 1, nil)
	if !e.Wait(ctx) {
		t.Fatal("a resolved entry lost to a done context")
	}
	if v, err := c.Get(context.Background(), "k", nil); v != 3 || err != nil {
		t.Fatalf("Get = %d, %v; want 3", v, err)
	}
}

// modelEntry is one resident entry of the slice model.
type modelEntry struct {
	key    byte
	weight int64
	val    int
	e      *Entry[byte, int]
}

// FuzzLRUMatchesModel decodes the input as a program of cache operations,
// three bytes each (an opcode and two operands), over eight keys, and checks
// the cache after every one against a slice model: resident entries in
// recency order, in-flight entries beside them. It checks the resident set
// and its order, the weight bound at rest, that no in-flight entry is
// evicted, one on-evict call per evicted value, and every counter.
func FuzzLRUMatchesModel(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 0, 1, 0, 1, 0, 2, 0, 1, 0, 2, 0, 3, 0, 1, 0, 1, 3, 0, 0})
	f.Add(uint8(2), []byte{0, 0, 0, 0, 1, 0, 1, 0, 2, 1, 0, 1, 4, 0, 2, 0, 2, 0, 1, 0, 1, 3, 1, 0, 5, 0, 0})
	f.Add(uint8(1), []byte{0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 1, 0, 5, 4, 0, 1, 5, 0, 0, 0, 3, 0, 1, 0, 0})
	f.Add(uint8(1), []byte{0, 0, 0, 1, 0, 3, 0, 1, 0, 1, 0, 4, 0, 2, 0, 1, 0, 1})
	f.Add(uint8(6), []byte{0, 1, 0, 0, 2, 0, 0, 3, 0, 1, 0, 3, 1, 0, 3, 1, 0, 3, 3, 1, 0, 4, 2, 0, 0, 4, 0, 1, 0, 4})
	f.Fuzz(func(t *testing.T, max uint8, prog []byte) {
		var evicted []int // values handed to the on-evict callback
		c := New[byte, int](int64(max%8), func(v int) { evicted = append(evicted, v) })
		var (
			resident []modelEntry // most recently used first
			inflight = map[byte]*Entry[byte, int]{}
			gone     []*Entry[byte, int] // handles that left the cache
			want     Stats
			wantEvs  []int
			nextVal  int
		)
		weight := func() (w int64) {
			for _, m := range resident {
				w += m.weight
			}
			return w
		}
		find := func(k byte) int {
			return slices.IndexFunc(resident, func(m modelEntry) bool { return m.key == k })
		}
		// mapped returns the cache's entry for a key without counting a
		// claim.
		mapped := func(k byte) *Entry[byte, int] {
			c.mu.Lock()
			defer c.mu.Unlock()
			return c.entries[k]
		}
		evict := func() {
			for weight() > int64(max%8) && len(resident) > 0 {
				m := resident[len(resident)-1]
				gone = append(gone, m.e)
				resident = resident[:len(resident)-1]
				want.Evictions++
				wantEvs = append(wantEvs, m.val)
			}
		}
		inflightKeys := func() []byte {
			var ks []byte
			for k := range inflight {
				ks = append(ks, k)
			}
			slices.Sort(ks)
			return ks
		}
		for op := 0; op+3 <= len(prog); op += 3 {
			code, a, b := prog[op], prog[op+1], prog[op+2]
			switch code % 6 {
			case 0: // claim a key
				k := a % 8
				e, owner := c.Claim(k)
				switch i := find(k); {
				case i >= 0:
					want.Hits++
					m := resident[i]
					if v, _ := e.Value(); owner || !e.Resolved() || v != m.val {
						t.Fatalf("op %d: claim of resident %d = (%d, owner %t)", op/3, k, v, owner)
					}
					resident = append([]modelEntry{m}, slices.Delete(resident, i, i+1)...)
				case inflight[k] != nil:
					want.Hits++
					if owner || e != inflight[k] || e.Resolved() {
						t.Fatalf("op %d: claim of in-flight %d: owner %t, same entry %t", op/3, k, owner, e == inflight[k])
					}
				default:
					want.Misses++
					if !owner {
						t.Fatalf("op %d: first claim of %d does not own it", op/3, k)
					}
					inflight[k] = e
				}
			case 1, 2: // resolve an in-flight entry, ok or with an error
				ks := inflightKeys()
				if len(ks) == 0 {
					continue
				}
				k := ks[int(a)%len(ks)]
				e := inflight[k]
				delete(inflight, k)
				if code%6 == 2 {
					c.Resolve(e, -1, int64(b%5), errors.New("build failed"))
					gone = append(gone, e)
				} else {
					nextVal++
					c.Resolve(e, nextVal, int64(b%5), nil)
					resident = append([]modelEntry{{k, int64(b % 5), nextVal, e}}, resident...)
					evict()
				}
			case 3: // a Get that hits a resident entry
				if len(resident) == 0 {
					continue
				}
				i := int(a) % len(resident)
				m := resident[i]
				v, err := c.Get(context.Background(), m.key, nil)
				if err != nil || v != m.val {
					t.Fatalf("op %d: Get(%d) = %d, %v; want %d", op/3, m.key, v, err, m.val)
				}
				want.Hits++
				resident = append([]modelEntry{m}, slices.Delete(resident, i, i+1)...)
			case 4: // re-weigh a resident entry
				if len(resident) == 0 {
					continue
				}
				i := int(a) % len(resident)
				m := resident[i]
				m.weight = int64(b % 5)
				if !c.Reweigh(m.e, m.weight) {
					t.Fatalf("op %d: Reweigh of resident %d failed", op/3, m.key)
				}
				resident = append([]modelEntry{m}, slices.Delete(resident, i, i+1)...)
				evict()
			case 5: // re-weigh an entry in flight or gone: a no-op
				var e *Entry[byte, int]
				if ks := inflightKeys(); len(ks) > 0 && a%2 == 0 {
					e = inflight[ks[int(b)%len(ks)]]
				} else if len(gone) > 0 {
					e = gone[int(b)%len(gone)]
				} else {
					continue
				}
				if c.Reweigh(e, 3) {
					t.Fatalf("op %d: Reweigh of an entry not resident succeeded", op/3)
				}
			}

			want.Resident, want.Building, want.Weight = len(resident), len(inflight), weight()
			if got := c.Stats(); got != want {
				t.Fatalf("op %d: stats %+v, model %+v", op/3, got, want)
			}
			if s := c.Stats(); s.Weight > int64(max%8) && s.Resident > 0 {
				t.Fatalf("op %d: resident weight %d exceeds the bound %d", op/3, s.Weight, max%8)
			}
			if !slices.Equal(evicted, wantEvs) {
				t.Fatalf("op %d: on-evict saw %v, model evicted %v", op/3, evicted, wantEvs)
			}
			var order []modelEntry
			for e := c.ring.next; e != &c.ring; e = e.next {
				v, _ := e.Value()
				order = append(order, modelEntry{e.key, e.weight, v, e})
			}
			if !slices.Equal(order, resident) {
				t.Fatalf("op %d: recency order %v, model %v", op/3, order, resident)
			}
			for k, e := range inflight {
				if mapped(k) != e || e.Resolved() {
					t.Fatalf("op %d: in-flight entry %d was resolved or evicted", op/3, k)
				}
			}
		}
	})
}
