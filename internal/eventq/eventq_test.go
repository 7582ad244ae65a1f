package eventq

import (
	"cmp"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"rfd/internal/xrand"
)

func TestEmptyQueue(t *testing.T) {
	var q Queue[string]
	if q.Len() != 0 {
		t.Fatalf("Len = %d, want 0", q.Len())
	}
	if _, ok := q.PeekTime(); ok {
		t.Fatal("PeekTime on empty queue reported an entry")
	}
	if _, _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue reported an entry")
	}
}

func TestPopOrderByTime(t *testing.T) {
	var q Queue[time.Duration]
	times := []time.Duration{5, 1, 3, 2, 4}
	for _, d := range times {
		q.Push(d*time.Second, d)
	}
	var got []time.Duration
	for q.Len() > 0 {
		at, _, _ := q.Pop()
		got = append(got, at)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("out of order: %v", got)
		}
	}
	if len(got) != len(times) {
		t.Fatalf("popped %d items, want %d", len(got), len(times))
	}
}

func TestFIFOAmongEqualTimes(t *testing.T) {
	var q Queue[int]
	const at = 10 * time.Second
	for i := 0; i < 50; i++ {
		q.Push(at, i)
	}
	for i := 0; i < 50; i++ {
		_, got, ok := q.Pop()
		if !ok || got != i {
			t.Fatalf("equal-time items fired out of push order: got %d at pos %d", got, i)
		}
	}
}

func TestPeekMatchesPop(t *testing.T) {
	var q Queue[string]
	q.Push(3*time.Second, "c")
	q.Push(1*time.Second, "a")
	q.Push(2*time.Second, "b")
	for q.Len() > 0 {
		pt, _ := q.PeekTime()
		at, _, _ := q.Pop()
		if at != pt {
			t.Fatalf("PeekTime %v != popped time %v", pt, at)
		}
	}
}

func TestCancel(t *testing.T) {
	var q Queue[string]
	q.Push(1*time.Second, "a")
	b := q.Push(2*time.Second, "b")
	q.Push(3*time.Second, "c")
	if !q.Cancel(b) {
		t.Fatal("Cancel(b) = false, want true")
	}
	if _, ok := q.When(b); ok {
		t.Fatal("b still reports scheduled after cancel")
	}
	if q.Cancel(b) {
		t.Fatal("second Cancel(b) = true, want false")
	}
	if _, got, _ := q.Pop(); got != "a" {
		t.Fatalf("first pop = %q, want a", got)
	}
	if _, got, _ := q.Pop(); got != "c" {
		t.Fatalf("second pop = %q, want c", got)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after draining, want 0", q.Len())
	}
}

func TestCancelHead(t *testing.T) {
	var q Queue[string]
	a := q.Push(1*time.Second, "a")
	q.Push(2*time.Second, "b")
	if !q.Cancel(a) {
		t.Fatal("Cancel(head) failed")
	}
	if _, got, _ := q.Pop(); got != "b" {
		t.Fatalf("pop = %q, want b", got)
	}
}

func TestCancelPoppedEntryIsNoop(t *testing.T) {
	var q Queue[string]
	a := q.Push(1*time.Second, "a")
	q.Pop()
	if q.Cancel(a) {
		t.Fatal("Cancel of popped entry returned true")
	}
}

func TestZeroHandleIsInert(t *testing.T) {
	var q Queue[string]
	var h Handle
	if q.Cancel(h) {
		t.Fatal("Cancel(zero) = true")
	}
	if q.Reschedule(h, time.Second) {
		t.Fatal("Reschedule(zero) = true")
	}
	if _, ok := q.When(h); ok {
		t.Fatal("When(zero) reported a time")
	}
}

// TestStaleHandleAfterSlotReuse pins the generation mechanism: a handle must
// stay invalid even after its slot is recycled for a new entry.
func TestStaleHandleAfterSlotReuse(t *testing.T) {
	var q Queue[string]
	a := q.Push(1*time.Second, "a")
	q.Pop() // frees a's slot
	b := q.Push(2*time.Second, "b")
	if a == b {
		t.Fatal("recycled slot produced an identical handle")
	}
	if _, ok := q.When(a); ok {
		t.Fatal("stale handle reports scheduled after slot reuse")
	}
	if q.Cancel(a) {
		t.Fatal("stale handle cancelled the slot's new entry")
	}
	if _, ok := q.When(b); !ok {
		t.Fatal("new entry not scheduled")
	}
}

func TestReschedule(t *testing.T) {
	var q Queue[string]
	a := q.Push(1*time.Second, "a")
	q.Push(2*time.Second, "b")
	// Move a after b.
	if !q.Reschedule(a, 5*time.Second) {
		t.Fatal("Reschedule returned false for scheduled entry")
	}
	if _, got, _ := q.Pop(); got != "b" {
		t.Fatalf("pop = %q, want b", got)
	}
	at, got, _ := q.Pop()
	if got != "a" {
		t.Fatalf("pop = %q, want a", got)
	}
	if at != 5*time.Second {
		t.Fatalf("rescheduled time = %v, want 5s", at)
	}
}

func TestRescheduleEarlier(t *testing.T) {
	var q Queue[string]
	a := q.Push(10*time.Second, "a")
	q.Push(2*time.Second, "b")
	if !q.Reschedule(a, 1*time.Second) {
		t.Fatal("Reschedule failed")
	}
	if _, got, _ := q.Pop(); got != "a" {
		t.Fatalf("pop = %q, want a after rescheduling earlier", got)
	}
}

func TestRescheduleFiredEntryFails(t *testing.T) {
	var q Queue[string]
	a := q.Push(1*time.Second, "a")
	q.Pop()
	if q.Reschedule(a, 2*time.Second) {
		t.Fatal("Reschedule of fired entry returned true")
	}
}

// TestRescheduleKeepsSeq verifies a rescheduled entry keeps its original
// sequence number: among equal times it still fires in original push order.
func TestRescheduleKeepsSeq(t *testing.T) {
	var q Queue[string]
	a := q.Push(1*time.Second, "a")
	q.Push(5*time.Second, "b")
	if !q.Reschedule(a, 5*time.Second) {
		t.Fatal("Reschedule failed")
	}
	if _, got, _ := q.Pop(); got != "a" {
		t.Fatalf("pop = %q, want a (original seq wins among equal times)", got)
	}
}

func TestPushReservedFiresAtReservation(t *testing.T) {
	var q Queue[string]
	q.Push(time.Second, "a")
	seq := q.Reserve()
	q.Push(time.Second, "c")
	if q.LastSeq() != seq+1 {
		t.Fatalf("LastSeq = %d after reserving %d and one push", q.LastSeq(), seq)
	}
	h := q.PushReserved(time.Second, seq, "b")
	q.Cancel(h)
	q.PushReserved(time.Second, seq, "b") // a cancelled reservation may be pushed again
	var got []string
	var seqs []uint64
	for q.Len() > 0 {
		_, s, p, _ := q.PopSeq()
		got = append(got, p)
		seqs = append(seqs, s)
	}
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("order = %v, want the reserved entry between its neighbours", got)
	}
	if seqs[0] == 0 || seqs[1] != seq || seqs[2] <= seq {
		t.Fatalf("sequence numbers %v (reserved %d); the first must be nonzero", seqs, seq)
	}
}

func TestScheduledReporting(t *testing.T) {
	var q Queue[string]
	a := q.Push(1*time.Second, "a")
	if at, ok := q.When(a); !ok || at != time.Second {
		t.Fatalf("When = (%v, %t), want (1s, true)", at, ok)
	}
	q.Pop()
	if _, ok := q.When(a); ok {
		t.Fatal("popped entry still scheduled")
	}
}

func TestInterleavedPushPop(t *testing.T) {
	var q Queue[int]
	q.Push(5*time.Second, 5)
	q.Push(1*time.Second, 1)
	if _, got, _ := q.Pop(); got != 1 {
		t.Fatalf("pop = %d, want 1", got)
	}
	q.Push(3*time.Second, 3)
	q.Push(2*time.Second, 2)
	want := []int{2, 3, 5}
	for _, w := range want {
		if _, got, _ := q.Pop(); got != w {
			t.Fatalf("pop = %d, want %d", got, w)
		}
	}
}

// TestSteadyStatePushPopDoesNotAllocate pins the slab design's point: once
// the slab has grown to the working-set size, scheduling is allocation-free.
func TestSteadyStatePushPopDoesNotAllocate(t *testing.T) {
	var q Queue[uint64]
	r := xrand.New(7)
	for i := 0; i < 1024; i++ {
		q.Push(time.Duration(r.Intn(1<<20)), uint64(i))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		q.Pop()
		q.Push(time.Duration(r.Intn(1<<20)), 1)
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocates %.1f per op, want 0", allocs)
	}
}

// modelEntry is one live entry of the reference model: its key, payload and
// the handle the queue returned for it.
type modelEntry struct {
	at      time.Duration
	seq     uint64
	payload int
	h       Handle
}

// heapModel is the reference the queue is checked against: the live entries
// sorted by (time, seq), the reserved sequence numbers not yet pushed, and
// the handles of entries that fired or were cancelled.
type heapModel struct {
	live     []modelEntry
	reserved []uint64
	dead     []Handle
	next     int // next payload
}

func (m *heapModel) clone() *heapModel {
	return &heapModel{
		live:     slices.Clone(m.live),
		reserved: slices.Clone(m.reserved),
		dead:     slices.Clone(m.dead),
		next:     m.next,
	}
}

func (m *heapModel) insert(e modelEntry) {
	i, _ := slices.BinarySearchFunc(m.live, e, func(a, b modelEntry) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		return cmp.Compare(a.seq, b.seq)
	})
	m.live = slices.Insert(m.live, i, e)
}

// victim picks a live entry by its rank in handle order, so the choice
// depends on the seed alone.
func (m *heapModel) victim(r *xrand.Rand) int {
	byHandle := make([]int, len(m.live))
	for i := range byHandle {
		byHandle[i] = i
	}
	slices.SortFunc(byHandle, func(a, b int) int {
		ha, hb := m.live[a].h, m.live[b].h
		return cmp.Or(cmp.Compare(ha.idx, hb.idx), cmp.Compare(ha.gen, hb.gen))
	})
	return byHandle[r.Intn(len(byHandle))]
}

func (m *heapModel) kill(i int) {
	m.dead = append(m.dead, m.live[i].h)
	m.live = slices.Delete(m.live, i, i+1)
}

// driveModel applies ops random operations to q and m and fails at the first
// disagreement. Sequence numbers are reserved ahead and pushed out of order,
// so reserved entries land between plain pushes.
func driveModel(t *testing.T, name string, r *xrand.Rand, q *Queue[int], m *heapModel, ops int) {
	t.Helper()
	randTime := func() time.Duration { return time.Duration(r.Intn(200)) * time.Millisecond }
	for op := 0; op < ops; op++ {
		switch k := r.Intn(10); {
		case k < 3: // push
			e := modelEntry{at: randTime(), payload: m.next}
			m.next++
			e.h = q.Push(e.at, e.payload)
			e.seq = q.LastSeq()
			m.insert(e)
		case k == 3: // reserve
			m.reserved = append(m.reserved, q.Reserve())
		case k == 4 && len(m.reserved) > 0: // push a reservation, any of them
			i := r.Intn(len(m.reserved))
			e := modelEntry{at: randTime(), seq: m.reserved[i], payload: m.next}
			m.next++
			m.reserved = slices.Delete(m.reserved, i, i+1)
			e.h = q.PushReserved(e.at, e.seq, e.payload)
			m.insert(e)
		case k == 5 || k == 6: // pop
			at, seq, got, ok := q.PopSeq()
			if len(m.live) == 0 {
				if ok {
					t.Fatalf("%s op %d: popped (%v, %d) from a queue the model holds empty", name, op, at, seq)
				}
				continue
			}
			want := m.live[0]
			if !ok || at != want.at || seq != want.seq || got != want.payload {
				t.Fatalf("%s op %d: popped (%v, %d, %d, %t), want (%v, %d, %d)",
					name, op, at, seq, got, ok, want.at, want.seq, want.payload)
			}
			m.kill(0)
		case k == 7 && len(m.live) > 0: // cancel, releasing a reserved number for reuse
			i := m.victim(r)
			if !q.Cancel(m.live[i].h) {
				t.Fatalf("%s op %d: Cancel of a live entry failed", name, op)
			}
			if r.Intn(2) == 0 {
				m.reserved = append(m.reserved, m.live[i].seq)
			}
			m.kill(i)
		case k == 8 && len(m.live) > 0: // reschedule
			i := m.victim(r)
			e := m.live[i]
			e.at = randTime()
			if !q.Reschedule(e.h, e.at) {
				t.Fatalf("%s op %d: Reschedule of a live entry failed", name, op)
			}
			m.live = slices.Delete(m.live, i, i+1)
			m.insert(e)
		case k == 9: // handles: live ones report their time, dead ones nothing
			if len(m.live) > 0 {
				e := m.live[m.victim(r)]
				if at, ok := q.When(e.h); !ok || at != e.at {
					t.Fatalf("%s op %d: When = (%v, %t) for a live entry at %v", name, op, at, ok, e.at)
				}
			}
			if len(m.dead) > 0 {
				h := m.dead[r.Intn(len(m.dead))]
				if _, ok := q.When(h); ok || q.Cancel(h) || q.Reschedule(h, 0) {
					t.Fatalf("%s op %d: a fired or cancelled handle still resolves", name, op)
				}
			}
		}
		if q.Len() != len(m.live) {
			t.Fatalf("%s op %d: Len = %d, model holds %d", name, op, q.Len(), len(m.live))
		}
	}
}

// TestRandomizedHeapProperty checks the queue against a sorted (time, seq)
// model under a random mix of Push, Reserve and out-of-order PushReserved,
// Pop, Cancel, Reschedule and When. Midway it clones the queue
// and drives the clone and the original apart: each must keep matching its
// own copy of the model, handles from before the clone resolving on both.
func TestRandomizedHeapProperty(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		r := xrand.New(seed)
		var q Queue[int]
		m := &heapModel{}
		driveModel(t, "original", r, &q, m, 2000)
		c, cm := q.Clone(), m.clone()
		driveModel(t, "clone", xrand.New(seed+100), c, cm, 2000)
		driveModel(t, "original after clone", r, &q, m, 2000)
		for _, pair := range []struct {
			name string
			q    *Queue[int]
			m    *heapModel
		}{{"original", &q, m}, {"clone", c, cm}} {
			for _, want := range pair.m.live {
				at, seq, got, ok := pair.q.PopSeq()
				if !ok || at != want.at || seq != want.seq || got != want.payload {
					t.Fatalf("seed %d %s drain: popped (%v, %d, %d), want (%v, %d, %d)",
						seed, pair.name, at, seq, got, want.at, want.seq, want.payload)
				}
			}
			if pair.q.Len() != 0 {
				t.Fatalf("seed %d %s: %d entries left after the model drained", seed, pair.name, pair.q.Len())
			}
		}
	}
}

func TestQuickPushPopSorted(t *testing.T) {
	f := func(ms []uint16) bool {
		var q Queue[struct{}]
		for _, m := range ms {
			q.Push(time.Duration(m)*time.Millisecond, struct{}{})
		}
		prev := time.Duration(-1)
		for q.Len() > 0 {
			at, _, _ := q.Pop()
			if at < prev {
				return false
			}
			prev = at
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// FuzzQueueMatchesModel decodes the input as a program of queue operations,
// three bytes each (an opcode and a 16-bit operand), and checks every result
// against the sorted (time, seq) model TestRandomizedHeapProperty uses. Times
// come from a narrow range, so pushes and reschedules often land below the
// last popped key, and a cancel picks its victim by rank in the model's
// order, so it often takes out a bucket's minimum. A Clone op continues on
// the clone; every queue cloned away from is drained against its own model
// at the end.
func FuzzQueueMatchesModel(f *testing.F) {
	f.Add([]byte{0, 9, 0, 0, 3, 0, 4, 0, 0, 0, 1, 0, 2, 0, 0})
	f.Add([]byte{0, 200, 1, 0, 100, 0, 0, 50, 2, 4, 0, 0, 0, 10, 0, 3, 0, 0, 4, 0, 0, 6, 0, 0, 4, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 5, 0, 2, 7, 0, 5, 1, 0, 4, 0, 0, 0, 1, 0, 4, 0, 0, 4, 0, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		type pair struct {
			q *Queue[int]
			m *heapModel
		}
		q, m := &Queue[int]{}, &heapModel{}
		var cloned []pair
		for op := 0; op+3 <= len(prog); op += 3 {
			code, arg := prog[op], int(prog[op+1])|int(prog[op+2])<<8
			at := time.Duration(arg%512) * time.Millisecond
			switch code % 7 {
			case 0: // push
				e := modelEntry{at: at, payload: m.next}
				m.next++
				e.h = q.Push(e.at, e.payload)
				e.seq = q.LastSeq()
				m.insert(e)
			case 1: // reserve a number for a later push
				m.reserved = append(m.reserved, q.Reserve())
			case 2: // push a reservation
				if len(m.reserved) == 0 {
					continue
				}
				i := arg % len(m.reserved)
				e := modelEntry{at: at, seq: m.reserved[i], payload: m.next}
				m.next++
				m.reserved = slices.Delete(m.reserved, i, i+1)
				e.h = q.PushReserved(e.at, e.seq, e.payload)
				m.insert(e)
			case 3: // pop, or check PeekTime first
				if pt, ok := q.PeekTime(); ok != (len(m.live) > 0) || ok && pt != m.live[0].at {
					t.Fatalf("op %d: PeekTime = (%v, %t), model %v", op/3, pt, ok, m.live)
				}
				at, seq, got, ok := q.PopSeq()
				if len(m.live) == 0 {
					if ok {
						t.Fatalf("op %d: popped (%v, %d) from an empty model", op/3, at, seq)
					}
					continue
				}
				want := m.live[0]
				if !ok || at != want.at || seq != want.seq || got != want.payload {
					t.Fatalf("op %d: popped (%v, %d, %d, %t), want (%v, %d, %d)",
						op/3, at, seq, got, ok, want.at, want.seq, want.payload)
				}
				m.kill(0)
			case 4: // cancel the entry of this rank
				if len(m.live) == 0 {
					continue
				}
				i := (arg >> 9) % len(m.live)
				if !q.Cancel(m.live[i].h) {
					t.Fatalf("op %d: Cancel of a live entry failed", op/3)
				}
				m.kill(i)
			case 5: // reschedule the entry of this rank
				if len(m.live) == 0 {
					continue
				}
				i := (arg >> 9) % len(m.live)
				e := m.live[i]
				e.at = at
				if !q.Reschedule(e.h, e.at) {
					t.Fatalf("op %d: Reschedule of a live entry failed", op/3)
				}
				m.live = slices.Delete(m.live, i, i+1)
				m.insert(e)
			case 6: // clone, and go on with the clone
				cloned = append(cloned, pair{q, m})
				q, m = q.Clone(), m.clone()
			}
			if q.Len() != len(m.live) {
				t.Fatalf("op %d: Len = %d, model holds %d", op/3, q.Len(), len(m.live))
			}
			for _, h := range m.dead {
				if _, ok := q.When(h); ok {
					t.Fatalf("op %d: a fired or cancelled handle still resolves", op/3)
				}
			}
		}
		for _, p := range append(cloned, pair{q, m}) {
			for _, want := range p.m.live {
				if at, ok := p.q.When(want.h); !ok || at != want.at {
					t.Fatalf("When = (%v, %t) for a live entry at %v", at, ok, want.at)
				}
			}
			for _, want := range p.m.live {
				at, seq, got, ok := p.q.PopSeq()
				if !ok || at != want.at || seq != want.seq || got != want.payload {
					t.Fatalf("drain: popped (%v, %d, %d, %t), want (%v, %d, %d)",
						at, seq, got, ok, want.at, want.seq, want.payload)
				}
			}
			if p.q.Len() != 0 {
				t.Fatalf("%d entries left after the model drained", p.q.Len())
			}
		}
	})
}

// engineDelay draws a scheduling delay from the mix the BGP engine pushes:
// about 80 % deliveries 1-50 ms out, 15 % MRAI expiries around 30 s, and 5 %
// damping reuse timers 5-40 min out.
func engineDelay(r *xrand.Rand) time.Duration {
	switch k := r.Intn(100); {
	case k < 80:
		return time.Millisecond + time.Duration(r.Uint64n(uint64(49*time.Millisecond)))
	case k < 95:
		return 22500*time.Millisecond + time.Duration(r.Uint64n(uint64(7500*time.Millisecond)))
	default:
		return reuseDelay(r)
	}
}

// reuseDelay draws a damping reuse timer's delay, 5-40 min out.
func reuseDelay(r *xrand.Rand) time.Duration {
	return 5*time.Minute + time.Duration(r.Uint64n(uint64(35*time.Minute)))
}

// enginePayload has the layout of the kernel's queued event (kind, arg).
type enginePayload struct {
	kind uint32
	arg  uint64
}

// BenchmarkPushPop measures one pop of the earliest entry plus one push at
// the popped time plus an engine delay, at a steady queue depth: 370 is the
// mean depth of the engine's queue under rfdd-mix shapes, 2000 above their
// peak. The rearm cases hold half the depth in reuse timers, and each
// iteration also re-arms one of them, as a charge to a suppressed route
// does: a cancel, and a push minutes ahead.
func BenchmarkPushPop(b *testing.B) {
	for _, tc := range []struct {
		name  string
		depth int
		rearm bool
	}{
		{"depth=370", 370, false},
		{"depth=2000", 2000, false},
		{"rearm/depth=370", 370, true},
		{"rearm/depth=2000", 2000, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			r := xrand.New(1)
			var q Queue[enginePayload]
			var reuse []Handle // a reuse timer's arg is its index here plus 1
			if tc.rearm {
				reuse = make([]Handle, tc.depth/2)
				for i := range reuse {
					reuse[i] = q.Push(reuseDelay(r), enginePayload{arg: uint64(i + 1)})
				}
			}
			for q.Len() < tc.depth {
				q.Push(engineDelay(r), enginePayload{})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at, p, _ := q.Pop()
				if p.arg == 0 {
					q.Push(at+engineDelay(r), p)
				} else {
					reuse[p.arg-1] = q.Push(at+reuseDelay(r), p)
				}
				if tc.rearm {
					j := i % len(reuse)
					q.Cancel(reuse[j])
					reuse[j] = q.Push(at+reuseDelay(r), enginePayload{arg: uint64(j + 1)})
				}
			}
		})
	}
}
