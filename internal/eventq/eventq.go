// Package eventq implements the priority queue that drives the discrete-event
// simulation kernel.
//
// It is an indexed binary min-heap ordered by (time, sequence number): events
// scheduled for the same instant fire in the order they were scheduled, which
// is what makes whole-network simulations deterministic. A sequence number
// can also be reserved without pushing anything and used for a push later
// (Reserve, PushReserved): the entry then fires exactly where an entry pushed
// at reservation time would have. Entries can be cancelled or rescheduled in
// O(log n) via the Handle returned at push time, which the BGP engine uses
// for MRAI expiries and damping reuse timers.
//
// The queue is slab-backed: payloads live in a freelist-managed slice of
// slots rather than one heap allocation each, and handles are (index,
// generation) pairs instead of pointers. The heap array itself holds each
// entry's ordering key inline — (time, sequence number, slot index) — so a
// sift compares contiguous memory and never follows an index into the slab;
// a slot keeps only the payload, its generation and its heap position. Sifts
// move a hole rather than swapping: one cell write and one position write per
// level. In steady state — pushes balanced by pops and cancels — scheduling
// allocates nothing, which keeps the simulator's per-event cost out of the
// garbage collector entirely. The generation counter makes stale handles
// (fired or cancelled entries, even after their slot has been reused)
// reliably detectable.
//
// (time, seq) is unique among live entries, so the pop order is fully
// determined by the keys: any correct heap layout pops the same sequence.
package eventq

import "time"

// Handle identifies a scheduled entry. The zero Handle is invalid and inert:
// Cancel, Reschedule, Scheduled and When all treat it as "not scheduled".
// Handles stay invalid after their entry fires or is cancelled, even once the
// underlying slot is reused for a later entry.
type Handle struct {
	idx int32
	gen uint32
}

// slot is one slab cell. A slot is live when pos >= 0; freeing it bumps gen
// (invalidating outstanding handles) and zeroes the payload so the queue
// never retains references through fired events.
type slot[P any] struct {
	payload P
	gen     uint32
	pos     int32 // index into heap; -1 when free
}

// cell is one heap entry: the ordering key inline, and the slot holding the
// payload.
type cell struct {
	time time.Duration
	seq  uint64
	slot int32
}

// before orders cells by (time, seq).
func (c *cell) before(d *cell) bool {
	return c.time < d.time || c.time == d.time && c.seq < d.seq
}

// Queue is a deterministic time-ordered priority queue with payload type P.
// The zero value is an empty queue ready for use. Entries pushed with equal
// times fire in push order (FIFO by sequence number).
type Queue[P any] struct {
	slots []slot[P]
	heap  []cell
	free  []int32 // free slot indices
	seq   uint64  // last sequence number handed out; the first is 1
}

// Len returns the number of pending entries.
func (q *Queue[P]) Len() int { return len(q.heap) }

// Push schedules payload at time t and returns a handle usable with Cancel,
// Reschedule and When. Entries pushed with equal t fire in push order.
func (q *Queue[P]) Push(t time.Duration, payload P) Handle {
	q.seq++
	return q.PushReserved(t, q.seq, payload)
}

// Reserve hands out the next sequence number without pushing anything, as
// if an entry had been pushed and never fired. Sequence numbers start at 1,
// so 0 never names a reservation.
func (q *Queue[P]) Reserve() uint64 {
	q.seq++
	return q.seq
}

// LastSeq returns the last sequence number handed out by Push or Reserve (0
// before the first).
func (q *Queue[P]) LastSeq() uint64 { return q.seq }

// PushReserved schedules payload at time t under a sequence number taken
// earlier from Reserve: among entries at t it fires where an entry pushed at
// reservation time would have. A reserved number names one live entry at a
// time; it may be pushed again after its entry fired or was cancelled.
func (q *Queue[P]) PushReserved(t time.Duration, seq uint64, payload P) Handle {
	var idx int32
	if n := len(q.free); n > 0 {
		idx = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		q.slots = append(q.slots, slot[P]{gen: 1})
		idx = int32(len(q.slots) - 1)
	}
	q.slots[idx].payload = payload
	q.heap = append(q.heap, cell{})
	q.up(len(q.heap)-1, cell{time: t, seq: seq, slot: idx})
	return Handle{idx: idx, gen: q.slots[idx].gen}
}

// PeekTime returns the time of the earliest entry and whether one exists.
func (q *Queue[P]) PeekTime() (time.Duration, bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].time, true
}

// Pop removes the earliest entry and returns its time and payload. ok is
// false when the queue is empty. The entry's handle becomes invalid.
func (q *Queue[P]) Pop() (at time.Duration, payload P, ok bool) {
	at, _, payload, ok = q.PopSeq()
	return at, payload, ok
}

// PopSeq is Pop that also returns the entry's sequence number.
func (q *Queue[P]) PopSeq() (at time.Duration, seq uint64, payload P, ok bool) {
	if len(q.heap) == 0 {
		return 0, 0, payload, false
	}
	top := q.heap[0]
	payload = q.slots[top.slot].payload
	q.removeAt(0)
	return top.time, top.seq, payload, true
}

// Cancel removes the entry h refers to. It reports whether the entry was
// still scheduled; cancelling a fired, cancelled or zero handle is a no-op.
func (q *Queue[P]) Cancel(h Handle) bool {
	s := q.lookup(h)
	if s == nil {
		return false
	}
	q.removeAt(int(s.pos))
	return true
}

// Reschedule moves a still-scheduled entry to a new time, keeping its
// payload. It reports whether the entry was scheduled. A rescheduled entry
// keeps its original sequence number, so among equal times it still fires in
// original push order.
func (q *Queue[P]) Reschedule(h Handle, t time.Duration) bool {
	s := q.lookup(h)
	if s == nil {
		return false
	}
	i := int(s.pos)
	c := q.heap[i]
	earlier := t < c.time
	c.time = t
	if earlier {
		q.up(i, c)
	} else {
		q.down(i, c)
	}
	return true
}

// Scheduled reports whether h refers to a still-pending entry.
func (q *Queue[P]) Scheduled(h Handle) bool { return q.lookup(h) != nil }

// When returns the time a still-scheduled entry fires at. ok is false for
// fired, cancelled or zero handles.
func (q *Queue[P]) When(h Handle) (time.Duration, bool) {
	s := q.lookup(h)
	if s == nil {
		return 0, false
	}
	return q.heap[s.pos].time, true
}

// Clone returns a deep copy of the queue. The copy is independently mutable,
// and — because slot indices, generations and sequence numbers are preserved
// exactly — a Handle obtained from the original resolves to the corresponding
// entry in the clone, and a number reserved from the original may be pushed
// on the clone. Payloads are copied by assignment; payloads containing
// pointers share referents with the original, which the caller must remap if
// the referents are themselves copied (see sim.Kernel.RemapHandlers).
func (q *Queue[P]) Clone() *Queue[P] {
	c := &Queue[P]{seq: q.seq}
	if q.slots != nil {
		c.slots = append(make([]slot[P], 0, len(q.slots)), q.slots...)
	}
	if q.heap != nil {
		c.heap = append(make([]cell, 0, len(q.heap)), q.heap...)
	}
	if q.free != nil {
		c.free = append(make([]int32, 0, len(q.free)), q.free...)
	}
	return c
}

// ForEach calls f for every pending entry, passing a pointer to its payload
// so f may mutate it in place. Iteration order is heap order, not fire order;
// f must not add or remove entries.
func (q *Queue[P]) ForEach(f func(at time.Duration, payload *P)) {
	for _, c := range q.heap {
		f(c.time, &q.slots[c.slot].payload)
	}
}

// lookup resolves a handle to its live slot, nil when stale or invalid.
func (q *Queue[P]) lookup(h Handle) *slot[P] {
	if h.gen == 0 || int(h.idx) >= len(q.slots) {
		return nil
	}
	s := &q.slots[h.idx]
	if s.gen != h.gen || s.pos < 0 {
		return nil
	}
	return s
}

// removeAt deletes the heap entry at position i and frees its slot: the last
// cell fills the hole, sifting whichever way its key sends it.
func (q *Queue[P]) removeAt(i int) {
	idx := q.heap[i].slot
	last := len(q.heap) - 1
	moved := q.heap[last]
	q.heap = q.heap[:last]
	if i < last {
		if q.down(i, moved) == i {
			q.up(i, moved)
		}
	}
	s := &q.slots[idx]
	s.pos = -1
	s.gen++
	var zero P
	s.payload = zero
	q.free = append(q.free, idx)
}

// place stores c at heap position i and records the position in its slot.
func (q *Queue[P]) place(i int, c cell) {
	q.heap[i] = c
	q.slots[c.slot].pos = int32(i)
}

// up moves a hole at position i toward the root until c fits, and stores c
// there.
func (q *Queue[P]) up(i int, c cell) {
	for i > 0 {
		parent := (i - 1) / 2
		if !c.before(&q.heap[parent]) {
			break
		}
		q.place(i, q.heap[parent])
		i = parent
	}
	q.place(i, c)
}

// down moves a hole at position i toward the leaves until c fits, stores c
// there, and returns where that is.
func (q *Queue[P]) down(i int, c cell) int {
	n := len(q.heap)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && q.heap[right].before(&q.heap[child]) {
			child = right
		}
		if !q.heap[child].before(&c) {
			break
		}
		q.place(i, q.heap[child])
		i = child
	}
	q.place(i, c)
	return i
}
