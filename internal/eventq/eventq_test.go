package eventq

import (
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
	if q.Scheduled(b) {
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
	if q.Scheduled(h) {
		t.Fatal("Scheduled(zero) = true")
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
	if q.Scheduled(a) {
		t.Fatal("stale handle reports scheduled after slot reuse")
	}
	if q.Cancel(a) {
		t.Fatal("stale handle cancelled the slot's new entry")
	}
	if !q.Scheduled(b) {
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
	if !q.Scheduled(a) {
		t.Fatal("freshly pushed entry not Scheduled")
	}
	if at, ok := q.When(a); !ok || at != time.Second {
		t.Fatalf("When = (%v, %t), want (1s, true)", at, ok)
	}
	q.Pop()
	if q.Scheduled(a) {
		t.Fatal("popped entry still Scheduled")
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

// TestRandomizedHeapProperty drives the queue with a random mix of operations
// and checks, against a shadow set of live entries, that every pop returns
// the (time, seq)-minimum of the entries currently scheduled.
func TestRandomizedHeapProperty(t *testing.T) {
	r := xrand.New(99)
	var q Queue[int]
	type meta struct {
		at  time.Duration
		seq int
	}
	live := make(map[Handle]meta)
	seq := 0
	for op := 0; op < 20000; op++ {
		switch r.Intn(4) {
		case 0, 1: // push
			at := time.Duration(r.Intn(1000)) * time.Millisecond
			h := q.Push(at, seq)
			live[h] = meta{at: at, seq: seq}
			seq++
		case 2: // pop
			at, got, ok := q.Pop()
			if !ok {
				if len(live) != 0 {
					t.Fatalf("op %d: queue empty but %d live entries tracked", op, len(live))
				}
				continue
			}
			var popped Handle
			found := false
			for h, m := range live {
				if m.seq == got {
					popped, found = h, true
					break
				}
			}
			if !found {
				t.Fatalf("op %d: popped entry %d not in live set", op, got)
			}
			if live[popped].at != at {
				t.Fatalf("op %d: popped time %v != tracked %v", op, at, live[popped].at)
			}
			for h, m := range live {
				if h == popped {
					continue
				}
				if m.at < at || (m.at == at && m.seq < got) {
					t.Fatalf("op %d: popped (%v,%d) but (%v,%d) was scheduled",
						op, at, got, m.at, m.seq)
				}
			}
			delete(live, popped)
		case 3: // cancel or reschedule a random live entry
			for h, m := range live {
				if r.Intn(2) == 0 {
					if !q.Cancel(h) {
						t.Fatalf("op %d: Cancel of live entry failed", op)
					}
					delete(live, h)
				} else {
					at := time.Duration(r.Intn(1000)) * time.Millisecond
					if !q.Reschedule(h, at) {
						t.Fatalf("op %d: Reschedule of live entry failed", op)
					}
					m.at = at
					live[h] = m
				}
				break
			}
		}
	}
	if q.Len() != len(live) {
		t.Fatalf("queue length %d != tracked live set %d", q.Len(), len(live))
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

func BenchmarkPushPop(b *testing.B) {
	r := xrand.New(1)
	var q Queue[int]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(time.Duration(r.Intn(1<<20)), i)
		if q.Len() > 1024 {
			q.Pop()
		}
	}
}
