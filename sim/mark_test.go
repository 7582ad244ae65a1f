package sim

import (
	"context"
	"fmt"
	"testing"
	"time"

	"rfd/internal/xrand"
)

// markSched drives one kernel through a seeded schedule of "tick" and "slot"
// events. A firing tick draws two or three new events at now+0..4 s (whole
// seconds, so instants collide often, now included): ticks are pushed on
// every kernel alike, slots are what a mark stands for. The eager kernel
// pushes every slot; the lazy one reserves a Mark per slot and, for a seeded
// subset, pushes it later with AtMark from a "pusher" event of its own (or
// at once). Only ticks consume the shared stream, and ticks fire in the same
// order on both kernels, so both see the same schedule.
type markSched struct {
	k     *Kernel
	lazy  bool
	rng   *xrand.Rand // the shared schedule stream, drawn by ticks only
	side  *xrand.Rand // lazy-only draws: which slots to push, and when
	next  uint64
	fired []string
	kept  map[uint64]bool
	marks map[uint64]Mark // lazy: every reserved slot, pushed or not

	tick, slot, pusher markHandler
}

type markHandler struct {
	s  *markSched
	fn func(s *markSched, arg uint64)
}

func (h *markHandler) HandleEvent(arg uint64) { h.fn(h.s, arg) }

const markSchedEvents = 400

func newMarkSched(lazy bool, seed uint64) *markSched {
	s := &markSched{
		k:     NewKernel(WithSeed(seed)),
		lazy:  lazy,
		rng:   xrand.New(seed),
		side:  xrand.New(seed ^ 0x9e3779b97f4a7c15),
		kept:  map[uint64]bool{},
		marks: map[uint64]Mark{},
	}
	s.tick = markHandler{s, (*markSched).onTick}
	s.slot = markHandler{s, (*markSched).onSlot}
	s.pusher = markHandler{s, (*markSched).onPush}
	s.k.SetMarks(s.latest)
	for i := 0; i < 3; i++ {
		s.k.AtHandler(time.Duration(i)*time.Second, "tick", &s.tick, s.id())
	}
	return s
}

func (s *markSched) id() uint64 { s.next++; return s.next }

func (s *markSched) onTick(id uint64) {
	s.fired = append(s.fired, fmt.Sprintf("%d tick%d", s.k.Now(), id))
	for n := 2 + s.rng.Intn(2); n > 0 && s.next < markSchedEvents; n-- {
		at := s.k.Now() + time.Duration(s.rng.Intn(5))*time.Second
		id := s.id()
		if s.rng.Intn(2) == 0 {
			s.k.AtHandler(at, "tick", &s.tick, id)
			continue
		}
		if !s.lazy {
			s.k.AtHandler(at, "slot", &s.slot, id)
			continue
		}
		m := s.k.Reserve(at)
		s.marks[id] = m
		if s.side.Intn(2) == 0 {
			continue // never pushed: the slot stays a bare mark
		}
		s.kept[id] = true
		if gap := at - s.k.Now(); gap > 0 && s.side.Intn(2) == 0 {
			// Push late, from an event strictly before the mark. The gap
			// (up to 4 s in nanoseconds) overflows a 32-bit int, so the
			// delay is drawn from 64 bits rather than with Intn.
			s.k.AtHandler(s.k.Now()+time.Duration(s.side.Uint64()%uint64(gap)), "pusher", &s.pusher, id)
		} else {
			s.k.AtMark(m, s.k.Kind("slot", &s.slot), id)
		}
	}
}

func (s *markSched) onSlot(id uint64) {
	s.fired = append(s.fired, fmt.Sprintf("%d slot%d", s.k.Now(), id))
}

func (s *markSched) onPush(id uint64) {
	m := s.marks[id]
	if !s.k.Ahead(m) {
		panic(fmt.Sprintf("slot %d passed before its pusher fired", id))
	}
	s.k.AtMark(m, s.k.Kind("slot", &s.slot), id)
}

// latest is the lazy kernel's mark source: every reserved slot, pushed or
// not, as an eager kernel would still hold its event.
func (s *markSched) latest() Mark {
	var l Mark
	for _, m := range s.marks {
		if m.After(l) {
			l = m
		}
	}
	return l
}

// TestMarksFireWhereEagerEventsWould is the marks' differential test: a
// schedule whose slots are pushed eagerly fires, restricted to the slots the
// lazy run pushed, in the same (time, name) order as the lazy run, whatever
// subset it pushed and however late; and both drains end at the same Now.
func TestMarksFireWhereEagerEventsWould(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		lazy, eager := newMarkSched(true, seed), newMarkSched(false, seed)
		if err := lazy.k.Run(); err != nil {
			t.Fatal(err)
		}
		if err := eager.k.Run(); err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, line := range eager.fired {
			var at int64
			var id uint64
			if _, err := fmt.Sscanf(line, "%d slot%d", &at, &id); err == nil && !lazy.kept[id] {
				continue
			}
			want = append(want, line)
		}
		if len(lazy.marks) == 0 || len(lazy.kept) == len(lazy.marks) || len(lazy.kept) == 0 {
			t.Fatalf("seed %d: %d slots, %d pushed: the schedule does not exercise a proper subset", seed, len(lazy.marks), len(lazy.kept))
		}
		if len(lazy.fired) != len(want) {
			t.Fatalf("seed %d: lazy fired %d events, eager %d of the pushed ones", seed, len(lazy.fired), len(want))
		}
		for i := range want {
			if lazy.fired[i] != want[i] {
				t.Fatalf("seed %d: event %d is %q, eager order has %q", seed, i, lazy.fired[i], want[i])
			}
		}
		if lazy.k.Now() != eager.k.Now() {
			t.Fatalf("seed %d: lazy drain ends at %v, eager at %v", seed, lazy.k.Now(), eager.k.Now())
		}
	}
}

func TestMarkAheadAtRunUntil(t *testing.T) {
	k := NewKernel()
	fs := newFuncs(k)
	early := k.Reserve(5 * time.Second)
	fs.At(5*time.Second, "e", func() {})
	atH := k.Reserve(10 * time.Second)
	late := k.Reserve(10*time.Second + 1)
	if !k.Ahead(early) || !k.Ahead(atH) || !k.Ahead(late) {
		t.Fatal("fresh marks not ahead")
	}
	if err := k.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if k.Ahead(early) || k.Ahead(atH) {
		t.Fatal("RunUntil(h) left a mark at or before h ahead")
	}
	if !k.Ahead(late) {
		t.Fatal("RunUntil(h) passed a mark after h")
	}
	// A mark reserved at the horizon after the run is ahead again: an event
	// pushed now at the horizon would still fire.
	if now := k.Reserve(k.Now()); !k.Ahead(now) {
		t.Fatal("a mark reserved at Now after RunUntil is not ahead")
	}
	var zero Mark
	if k.Ahead(zero) {
		t.Fatal("the zero Mark is ahead")
	}
}

func TestMarkAheadAtRunBefore(t *testing.T) {
	k := NewKernel()
	fs := newFuncs(k)
	before := k.Reserve(5 * time.Second)
	fs.At(5*time.Second, "e", func() {})
	after := k.Reserve(5 * time.Second) // reserved after the event: fires after it
	atH := k.Reserve(10 * time.Second)
	if err := k.RunBefore(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 5*time.Second {
		t.Fatalf("RunBefore moved the clock to %v", k.Now())
	}
	if k.Ahead(before) {
		t.Fatal("a mark ordered before the last fired event is still ahead")
	}
	if !k.Ahead(after) {
		t.Fatal("a mark ordered after the last fired event was passed")
	}
	if !k.Ahead(atH) {
		t.Fatal("RunBefore(h) passed a mark at h: the bound is exclusive")
	}
}

func TestMarkAheadAtAdvanceTo(t *testing.T) {
	k := NewKernel()
	fs := newFuncs(k)
	m := k.Reserve(10 * time.Second)     // low sequence number
	fs.At(5*time.Second, "e", func() {}) // higher one, fires first
	if err := k.RunBefore(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	k.AdvanceTo(10 * time.Second)
	if !k.Ahead(m) {
		t.Fatal("AdvanceTo(at) passed a mark at exactly at")
	}
	fired := false
	fs.AtMark(m, "m", func() { fired = true })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired || k.Now() != 10*time.Second {
		t.Fatalf("mark event fired=%t, Now=%v", fired, k.Now())
	}
}

func TestAtMarkPanicsOnPassedMark(t *testing.T) {
	k := NewKernel()
	fs := newFuncs(k)
	m := k.Reserve(time.Second)
	if err := k.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AtMark on a passed mark did not panic")
		}
	}()
	fs.AtMark(m, "late", func() {})
}

// liveMarks is a mark source over a set a test edits.
type liveMarks map[string]Mark

func (l liveMarks) latest() Mark {
	var out Mark
	for _, m := range l {
		if m.After(out) {
			out = m
		}
	}
	return out
}

func TestDrainSettlesAtLatestLiveMark(t *testing.T) {
	for _, tc := range []struct {
		name  string
		drain func(*Kernel) error
	}{
		{"Run", (*Kernel).Run},
		{"RunContext", func(k *Kernel) error { return k.RunContext(context.Background()) }},
		{"Step", func(k *Kernel) error {
			for k.Step() {
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			fs := newFuncs(k)
			marks := liveMarks{}
			k.SetMarks(marks.latest)
			fs.At(5*time.Second, "e", func() {
				marks["a"] = k.Reserve(k.Now() + 30*time.Second)
				marks["b"] = k.Reserve(k.Now() + 20*time.Second)
				marks["cancelled"] = k.Reserve(k.Now() + 60*time.Second)
				delete(marks, "cancelled")
			})
			if err := tc.drain(k); err != nil {
				t.Fatal(err)
			}
			if k.Now() != 35*time.Second {
				t.Fatalf("drain ends at %v, want the latest live mark 35s", k.Now())
			}
			if k.Ahead(marks["a"]) || k.Ahead(marks["b"]) {
				t.Fatal("a mark is still ahead after the drain settled")
			}
			if k.Executed() != 1 {
				t.Fatalf("executed %d events: marks are not events", k.Executed())
			}
		})
	}
}

func TestSettleIgnoresPassedAndCancelledMarks(t *testing.T) {
	k := NewKernel()
	fs := newFuncs(k)
	marks := liveMarks{}
	k.SetMarks(marks.latest)
	marks["passed"] = k.Reserve(10 * time.Second)
	if err := k.RunUntil(40 * time.Second); err != nil {
		t.Fatal(err)
	}
	fs.At(50*time.Second, "e", func() {
		marks["cancelled"] = k.Reserve(k.Now() + 30*time.Second)
	})
	fs.At(60*time.Second, "cancel", func() { delete(marks, "cancelled") })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 60*time.Second {
		t.Fatalf("drain ends at %v, want the last event at 60s", k.Now())
	}
	k.Settle() // idempotent
	if k.Now() != 60*time.Second {
		t.Fatalf("second Settle moved the clock to %v", k.Now())
	}
}

func TestShardGroupRunSettlesEachShard(t *testing.T) {
	k0, k1 := NewKernel(), NewKernel()
	m0, m1 := liveMarks{}, liveMarks{}
	k0.SetMarks(m0.latest)
	k1.SetMarks(m1.latest)
	fs0, fs1 := newFuncs(k0), newFuncs(k1)
	fs0.At(time.Second, "e0", func() { m0["x"] = k0.Reserve(k0.Now() + 30*time.Second) })
	fs1.At(2*time.Second, "e1", func() { m1["x"] = k1.Reserve(k1.Now() + 10*time.Second) })
	fs1.At(3*time.Second, "e1", func() {
		m1["y"] = k1.Reserve(k1.Now() + 50*time.Second)
		delete(m1, "y")
	})
	g, err := NewShardGroup(time.Millisecond, []*Kernel{k0, k1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if k0.Now() != 31*time.Second || k1.Now() != 12*time.Second {
		t.Fatalf("shard clocks %v, %v; want each at its latest live mark (31s, 12s)", k0.Now(), k1.Now())
	}
	if g.Now() != 31*time.Second {
		t.Fatalf("group Now %v, want 31s", g.Now())
	}
}

func TestShardGroupRunUntilPassesMarks(t *testing.T) {
	k0, k1 := NewKernel(), NewKernel()
	a := k0.Reserve(10 * time.Second)
	newFuncs(k1).At(10*time.Second, "e", func() {})
	b := k1.Reserve(10 * time.Second) // after the event at the same instant
	c := k1.Reserve(11 * time.Second)
	g, err := NewShardGroup(time.Millisecond, []*Kernel{k0, k1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if err := g.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if k0.Ahead(a) || k1.Ahead(b) {
		t.Fatal("ShardGroup.RunUntil(h) left a mark at h ahead")
	}
	if !k1.Ahead(c) {
		t.Fatal("ShardGroup.RunUntil(h) passed a mark after h")
	}
}

func TestForkPreservesMarks(t *testing.T) {
	k := NewKernel()
	fs := newFuncs(k)
	var order []string
	rec := func(name string) func() { return func() { order = append(order, name) } }
	m := k.Reserve(10 * time.Second)
	fs.At(10*time.Second, "after", rec("after")) // later sequence number, same instant
	passed := k.Reserve(6 * time.Second)         // passed by e, which fires at its instant
	fs.At(6*time.Second, "e", rec("e"))
	if err := k.RunBefore(7 * time.Second); err != nil {
		t.Fatal(err)
	}
	f := k.Fork()
	for _, kk := range []*Kernel{k, f} {
		if !kk.Ahead(m) || kk.Ahead(passed) {
			t.Fatalf("marks ahead: m %t, passed %t (fork %t); want true, false", kk.Ahead(m), kk.Ahead(passed), kk == f)
		}
	}
	if err := f.RemapHandlers(func(h Handler) Handler { return h }); err != nil {
		t.Fatal(err)
	}
	f.AtMark(m, f.Kind("mark", fs), fs.add(rec("mark")))
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(order); got != "[e mark after]" {
		t.Fatalf("fork fired %s, want the mark before the later-pushed event at its instant", got)
	}
}

// TestRunUntilQuietReportsTheDrainEnd: a run to a horizon that empties the
// queue reports where a drain would have stopped at that moment — the latest
// mark still ahead, else the last event — and still moves the clock on to the
// horizon; a run that leaves an event pending reports no such end.
func TestRunUntilQuietReportsTheDrainEnd(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name      string
		markAt    time.Duration // reserved by the last event; 0 for none
		wantQuiet time.Duration
	}{
		{"mark ahead", 45 * time.Second, 45 * time.Second},
		{"mark passed", 0, 30 * time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			fs := newFuncs(k)
			var m Mark
			k.SetMarks(func() Mark { return m })
			fs.At(10*time.Second, "early", func() { m = k.Reserve(15 * time.Second) })
			fs.At(30*time.Second, "last", func() {
				if tc.markAt > 0 {
					m = k.Reserve(tc.markAt)
				}
			})
			if _, dry, err := k.RunUntilQuiet(ctx, 20*time.Second); err != nil || dry {
				t.Fatalf("run to 20s with an event pending at 30s: dry %t, err %v", dry, err)
			}
			quiet, dry, err := k.RunUntilQuiet(ctx, time.Minute)
			if err != nil || !dry || quiet != tc.wantQuiet {
				t.Fatalf("run to 1m = quiet %v, dry %t, err %v; want %v, true", quiet, dry, err, tc.wantQuiet)
			}
			if k.Now() != time.Minute {
				t.Fatalf("clock at %v after the run, want the 1m horizon", k.Now())
			}
		})
	}
}
