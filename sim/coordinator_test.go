package sim

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// A group in which one shard owns every event never needs a second
// goroutine: each epoch runs inline on the coordinator and is counted solo.
func TestShardGroupSoloEpochsStartNoWorker(t *testing.T) {
	const L = 10 * time.Millisecond
	ks := []*Kernel{NewKernel(), NewKernel(), NewKernel()}
	fired := 0
	fs := newFuncs(ks[1])
	for i := 0; i < 20; i++ {
		fs.At(time.Duration(i)*3*L, "lonely", func() { fired++ })
	}
	before := runtime.NumGoroutine()
	g, err := NewShardGroup(L, ks, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if err := g.RunUntil(20 * L); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got != before {
		t.Fatalf("goroutines %d -> %d: a single busy shard must not start workers", before, got)
	}
	st := g.Stats()
	if fired != 20 || st.TotalEvents != 20 {
		t.Fatalf("fired %d, stats count %d, want 20", fired, st.TotalEvents)
	}
	if st.Epochs != 20 || st.SoloEpochs != st.Epochs {
		t.Fatalf("epochs %d solo %d, want 20 and 20", st.Epochs, st.SoloEpochs)
	}
	if !reflect.DeepEqual(st.EventsPerShard, []uint64{0, 20, 0}) {
		t.Fatalf("per-shard events %v, want [0 20 0]", st.EventsPerShard)
	}
}

// When several shards fail in one epoch the group reports the lowest-numbered
// one, whichever worker finished first. Shard 0 (run by the coordinator) stays
// healthy, so the two failures race on the done channel; their texts differ
// because each embeds its own kernel's event count.
func TestShardGroupLowestFailingShardWins(t *testing.T) {
	const L = 10 * time.Millisecond
	limits := []uint64{1000, 5, 9}
	for round := 0; round < 50; round++ {
		ks := make([]*Kernel, len(limits))
		for s, limit := range limits {
			ks[s] = NewKernel(WithMaxEvents(limit))
			fs := newFuncs(ks[s])
			for i := 0; i < 20; i++ {
				fs.At(time.Duration(i)*time.Microsecond, "burst", func() {})
			}
		}
		g, err := NewShardGroup(L, ks, nil)
		if err != nil {
			t.Fatal(err)
		}
		err = g.Run()
		g.Close()
		if !errors.Is(err, ErrEventLimit) {
			t.Fatalf("round %d: err = %v, want ErrEventLimit", round, err)
		}
		want := ks[1].RunBefore(L) // still over its limit: the same text again
		if err.Error() != want.Error() {
			t.Fatalf("round %d: group reported %q, want shard 1's %q", round, err, want)
		}
		if ks[2].Executed() != limits[2] {
			t.Fatalf("round %d: shard 2 executed %d events, want %d (it must have failed too)", round, ks[2].Executed(), limits[2])
		}
	}
}

// randL is the random world's lookahead and minimum cross-shard latency.
const randL = 5 * time.Millisecond

// randWorld is a K-shard workload with a seeded random mix of local follow-up
// events and cross-shard messages, built from typed handler events. Every draw comes from the owning kernel's RNG and every shard writes
// only its own outbox, so a run is independent of goroutine scheduling.
type randWorld struct {
	kernels []*Kernel
	shards  []*randShard
	g       *ShardGroup
}

type randShard struct {
	w   *randWorld
	id  int
	out []hmsg
}

// hmsg is a cross-shard message waiting in its source shard's outbox.
type hmsg struct {
	at    time.Duration
	shard int
	arg   uint64
}

func (s *randShard) HandleEvent(hops uint64) {
	if hops == 0 {
		return
	}
	k := s.w.kernels[s.id]
	rng := k.rng
	if rng.Intn(3) == 0 {
		k.AtHandler(k.Now()+time.Duration(rng.Intn(int(3*randL))), "local", s, hops-1)
		return
	}
	dst := (s.id + 1 + rng.Intn(len(s.w.shards)-1)) % len(s.w.shards)
	s.out = append(s.out, hmsg{k.Now() + randL + time.Duration(rng.Intn(int(randL))), dst, hops - 1})
}

// Flush injects in (source shard, send order): deterministic, and the
// destination kernel orders equal instants by insertion.
func (w *randWorld) Flush() int {
	n := 0
	for _, s := range w.shards {
		for _, m := range s.out {
			w.kernels[m.shard].AtHandler(m.at, "hop", w.shards[m.shard], m.arg)
		}
		n += len(s.out)
		s.out = s.out[:0]
	}
	return n
}

func (w *randWorld) Pending() (time.Duration, bool) {
	var min time.Duration
	ok := false
	for _, s := range w.shards {
		for _, m := range s.out {
			if !ok || m.at < min {
				min, ok = m.at, true
			}
		}
	}
	return min, ok
}

func newRandWorld(t *testing.T, k int, seed uint64) *randWorld {
	t.Helper()
	w := &randWorld{}
	for s := 0; s < k; s++ {
		w.kernels = append(w.kernels, NewKernel(WithSeed(seed+uint64(s))))
		w.shards = append(w.shards, &randShard{w: w, id: s})
		// Chains of unequal length: early epochs have every shard busy, the
		// tail has one chain left hopping alone.
		for c := 0; c < 2; c++ {
			w.kernels[s].AtHandler(0, "start", w.shards[s], uint64(10+25*(s+c)))
		}
	}
	g, err := NewShardGroup(randL, w.kernels, w)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	w.g = g
	return w
}

// Who runs an epoch — coordinator inline or coordinator plus workers, in
// whatever order the goroutines are scheduled — never changes what is in it:
// two runs of one world, parked once mid-schedule, agree on the execution
// profile and every kernel's final clock.
func TestShardGroupModesAgreeOnRandomSchedule(t *testing.T) {
	const mid = 40 * randL
	type outcome struct {
		Stats  ShardStats
		Clocks []time.Duration
	}
	// finish parks the world at mid, then drains it.
	finish := func(w *randWorld) outcome {
		if err := w.g.RunUntil(mid); err != nil {
			t.Fatal(err)
		}
		if err := w.g.Run(); err != nil {
			t.Fatal(err)
		}
		var o outcome
		o.Stats = w.g.Stats()
		for _, k := range w.kernels {
			o.Clocks = append(o.Clocks, k.Now())
		}
		return o
	}
	for _, k := range []int{2, 4} {
		for seed := uint64(1); seed <= 3; seed++ {
			want := finish(newRandWorld(t, k, seed))
			st := want.Stats
			if st.SoloEpochs == 0 || st.SoloEpochs == st.Epochs || st.Injected == 0 {
				t.Fatalf("k=%d seed=%d: degenerate schedule (%d epochs, %d solo, %d injected)", k, seed, st.Epochs, st.SoloEpochs, st.Injected)
			}
			if got := finish(newRandWorld(t, k, seed)); !reflect.DeepEqual(got, want) {
				t.Errorf("k=%d seed=%d: second run\n got %+v\nwant %+v", k, seed, got, want)
			}
		}
	}
}
