// Package eventq implements the priority queue that drives the discrete-event
// simulation kernel.
//
// Entries pop in (time, sequence number) order: events scheduled for the
// same instant fire in the order they were scheduled, which is what makes
// whole-network simulations deterministic. A sequence number can also be
// reserved without pushing anything and used for a push later (Reserve,
// PushReserved): the entry then fires exactly where an entry pushed at
// reservation time would have. Entries can be cancelled in O(1), or
// rescheduled, via the Handle returned at push time, which the BGP engine
// uses for MRAI expiries and damping reuse timers.
//
// The queue is a monotone radix queue. It keeps base, the time of the last
// entry popped, and files each entry in bucket bits.Len64(key ^ base) of 65,
// where key is the entry's time as an order-preserving unsigned number:
// bucket 0 holds the entries at base, and every key in bucket i is below
// every key in bucket j > i. A pop takes the head of bucket 0; when bucket 0
// is empty it first moves base to the smallest key of the lowest non-empty
// bucket and refiles that bucket's entries, each into a lower bucket. An
// entry is refiled at most once per bit of its distance from base, and a
// simulation pushes most entries a few milliseconds to a few minutes ahead,
// so a pop costs a few list moves instead of a heap's log n sifts. Bucket 0
// is kept in sequence order; the other buckets are unordered, with a cached
// minimum that a cancel of that minimum marks stale, to be found again by a
// scan when PeekTime or a pop needs it. PeekTime never moves base. A push
// below base (legal, though the kernel never does it) lowers base to the
// pushed key: every bucket below the one the old and new base differ in
// merges into that bucket, which is empty, in O(64) with no allocation.
//
// Each bucket is a doubly linked list through a slab of slots, and so is the
// list of free slots, so a queue is one slice plus fixed-size state. Handles
// are (index, generation) pairs instead of pointers, a cancel unlinks a slot,
// and in steady state — pushes balanced by pops and cancels — scheduling
// allocates nothing, which keeps the simulator's per-event cost out of the
// garbage collector entirely. The generation counter makes stale handles
// (fired or cancelled entries, even after their slot has been reused)
// reliably detectable.
//
// (time, seq) is unique among live entries, so the pop order is fully
// determined by the keys: any correct layout pops the same sequence.
package eventq

import (
	"math/bits"
	"slices"
	"time"
)

// Handle identifies a scheduled entry. The zero Handle is invalid and inert:
// Cancel, Reschedule and When all treat it as "not scheduled".
// Handles stay invalid after their entry fires or is cancelled, even once the
// underlying slot is reused for a later entry.
type Handle struct {
	idx int32
	gen uint32
}

// slot is one slab cell: the payload and its key, and its links in its
// bucket's list (in the free list when the slot is free: next only). Which
// bucket is not stored: it is always bits.Len64(key ^ base). Slot 0 is a
// sentinel that is never live, so index 0 ends every list. Freeing a slot
// bumps gen (invalidating outstanding handles) and zeroes the payload so the
// queue never retains references through fired events.
type slot[P any] struct {
	payload    P
	key        uint64
	seq        uint64
	next, prev int32
	gen        uint32
	live       bool
}

// list is one bucket: the ends of its slot list and, for buckets above 0,
// the smallest key in it (see Queue.stale).
type list struct {
	head, tail int32
	min        uint64
}

// nbuckets is one bucket per possible bits.Len64 of a 64-bit difference.
const nbuckets = 65

// Queue is a deterministic time-ordered priority queue with payload type P.
// The zero value is an empty queue ready for use. Entries pushed with equal
// times fire in push order (FIFO by sequence number).
type Queue[P any] struct {
	slots   []slot[P]
	buckets [nbuckets]list
	base    uint64 // the key of the last entry popped, or below it
	used    uint64 // bit i-1 set when bucket i (1..64) is non-empty
	stale   uint64 // bit i-1 set when bucket i's min is unknown
	free    int32  // head of the free slot list, 0 when empty
	n       int
	seq     uint64 // last sequence number handed out; the first is 1
}

// keyOf maps a time to an unsigned key in the same order.
func keyOf(t time.Duration) uint64 { return uint64(t) ^ 1<<63 }

// timeOf inverts keyOf.
func timeOf(k uint64) time.Duration { return time.Duration(k ^ 1<<63) }

// Len returns the number of pending entries.
func (q *Queue[P]) Len() int { return q.n }

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
	if q.free != 0 {
		idx = q.free
		q.free = q.slots[idx].next
	} else {
		if len(q.slots) == 0 {
			q.slots = append(q.slots, slot[P]{}) // the sentinel
		}
		q.slots = append(q.slots, slot[P]{gen: 1})
		idx = int32(len(q.slots) - 1)
	}
	s := &q.slots[idx]
	s.payload, s.key, s.seq, s.live = payload, keyOf(t), seq, true
	q.file(idx)
	q.n++
	return Handle{idx: idx, gen: s.gen}
}

// PeekTime returns the time of the earliest entry and whether one exists.
func (q *Queue[P]) PeekTime() (time.Duration, bool) {
	if q.n == 0 {
		return 0, false
	}
	if q.buckets[0].head != 0 {
		return timeOf(q.base), true
	}
	return timeOf(q.min(bits.TrailingZeros64(q.used) + 1)), true
}

// Pop removes the earliest entry and returns its time and payload. ok is
// false when the queue is empty. The entry's handle becomes invalid.
func (q *Queue[P]) Pop() (at time.Duration, payload P, ok bool) {
	at, _, payload, ok = q.PopSeq()
	return at, payload, ok
}

// PopSeq is Pop that also returns the entry's sequence number.
func (q *Queue[P]) PopSeq() (at time.Duration, seq uint64, payload P, ok bool) {
	if q.n == 0 {
		return 0, 0, payload, false
	}
	if q.buckets[0].head == 0 {
		q.refill()
	}
	idx := q.buckets[0].head
	s := &q.slots[idx]
	at, seq, payload = timeOf(s.key), s.seq, s.payload
	q.remove(idx)
	return at, seq, payload, true
}

// Cancel removes the entry h refers to. It reports whether the entry was
// still scheduled; cancelling a fired, cancelled or zero handle is a no-op.
func (q *Queue[P]) Cancel(h Handle) bool {
	if !q.live(h) {
		return false
	}
	q.remove(h.idx)
	return true
}

// Reschedule moves a still-scheduled entry to a new time, keeping its
// payload. It reports whether the entry was scheduled. A rescheduled entry
// keeps its original sequence number, so among equal times it still fires in
// original push order.
func (q *Queue[P]) Reschedule(h Handle, t time.Duration) bool {
	if !q.live(h) {
		return false
	}
	q.unlink(h.idx)
	q.slots[h.idx].key = keyOf(t)
	q.file(h.idx)
	return true
}

// When returns the time a still-scheduled entry fires at. ok is false for
// fired, cancelled or zero handles.
func (q *Queue[P]) When(h Handle) (time.Duration, bool) {
	if !q.live(h) {
		return 0, false
	}
	return timeOf(q.slots[h.idx].key), true
}

// Clone returns a deep copy of the queue. The copy is independently mutable,
// and — because slot indices, generations and sequence numbers are preserved
// exactly — a Handle obtained from the original resolves to the corresponding
// entry in the clone, and a number reserved from the original may be pushed
// on the clone. Payloads are copied by assignment, so payloads containing
// pointers share referents with the original; the kernel's payloads hold
// none, which makes its clone a plain copy.
func (q *Queue[P]) Clone() *Queue[P] {
	c := *q
	c.slots = slices.Clone(q.slots)
	return &c
}

// live reports whether h names a scheduled entry.
func (q *Queue[P]) live(h Handle) bool {
	if h.gen == 0 || int(h.idx) >= len(q.slots) {
		return false
	}
	s := &q.slots[h.idx]
	return s.gen == h.gen && s.live
}

// remove unlinks a live entry and frees its slot.
func (q *Queue[P]) remove(idx int32) {
	q.unlink(idx)
	s := &q.slots[idx]
	s.live = false
	s.gen++
	var zero P
	s.payload = zero
	s.next = q.free
	q.free = idx
	q.n--
}

// file puts slot idx, whose key is set, into the bucket its key belongs in,
// first lowering base to the key if it is below.
func (q *Queue[P]) file(idx int32) {
	k := q.slots[idx].key
	if k < q.base {
		q.lower(k)
	}
	q.link(idx, bits.Len64(k^q.base))
}

// link appends slot idx to bucket b — to bucket 0 in sequence order — and
// keeps the bucket's minimum.
func (q *Queue[P]) link(idx int32, b int) {
	s := &q.slots[idx]
	l := &q.buckets[b]
	after := l.tail
	if b == 0 {
		for after != 0 && q.slots[after].seq > s.seq {
			after = q.slots[after].prev
		}
	} else if bit := uint64(1) << (b - 1); q.used&bit == 0 {
		q.used |= bit
		l.min = s.key
	} else if s.key < l.min {
		l.min = s.key // a stale minimum is a lower bound, and stays one
	}
	s.prev = after
	if after == 0 {
		s.next = l.head
		l.head = idx
	} else {
		s.next = q.slots[after].next
		q.slots[after].next = idx
	}
	if s.next == 0 {
		l.tail = idx
	} else {
		q.slots[s.next].prev = idx
	}
}

// unlink takes live slot idx out of its bucket. Taking out a bucket's
// minimum makes the cached minimum stale.
func (q *Queue[P]) unlink(idx int32) {
	s := &q.slots[idx]
	b := bits.Len64(s.key ^ q.base)
	l := &q.buckets[b]
	if s.prev == 0 {
		l.head = s.next
	} else {
		q.slots[s.prev].next = s.next
	}
	if s.next == 0 {
		l.tail = s.prev
	} else {
		q.slots[s.next].prev = s.prev
	}
	if b == 0 {
		return
	}
	bit := uint64(1) << (b - 1)
	switch {
	case l.head == 0:
		q.used &^= bit
		q.stale &^= bit
	case s.key == l.min:
		q.stale |= bit
	}
}

// min returns the smallest key in non-empty bucket b, scanning for it when
// the cached one is stale.
func (q *Queue[P]) min(b int) uint64 {
	l := &q.buckets[b]
	if bit := uint64(1) << (b - 1); q.stale&bit != 0 {
		m := q.slots[l.head].key
		for i := q.slots[l.head].next; i != 0; i = q.slots[i].next {
			m = min(m, q.slots[i].key)
		}
		l.min = m
		q.stale &^= bit
	}
	return l.min
}

// refill moves base to the smallest key, which is in the lowest non-empty
// bucket, and refiles that bucket's entries below it: the smallest key lands
// in bucket 0. Bucket 0 must be empty.
func (q *Queue[P]) refill() {
	b := bits.TrailingZeros64(q.used) + 1
	q.base = q.min(b)
	i := q.buckets[b].head
	q.buckets[b] = list{}
	q.used &^= 1 << (b - 1)
	for i != 0 {
		next := q.slots[i].next
		q.link(i, bits.Len64(q.slots[i].key^q.base))
		i = next
	}
}

// lower moves base down to k, below every key in the queue. The buckets below
// d, the bucket old base and k differ in, hold keys that share every bit
// from d-1 up with old base, so they all fall in bucket d against k; bucket d
// itself is empty (its keys would be above old base with bit d-1 set, and old
// base already has it). So those buckets are spliced, in order, into d, which
// is the only bucket that changes.
func (q *Queue[P]) lower(k uint64) {
	d := bits.Len64(q.base ^ k)
	dst := &q.buckets[d]
	dbit := uint64(1) << (d - 1)
	for b := 0; b < d; b++ {
		l := &q.buckets[b]
		if l.head == 0 {
			continue
		}
		if q.used&dbit == 0 {
			// The lowest bucket merged holds the smallest key.
			q.used |= dbit
			switch {
			case b == 0:
				dst.min = q.base
			case q.stale&(1<<(b-1)) != 0:
				q.stale |= dbit
			default:
				dst.min = l.min
			}
			*dst = list{head: l.head, tail: l.tail, min: dst.min}
		} else {
			q.slots[dst.tail].next = l.head
			q.slots[l.head].prev = dst.tail
			dst.tail = l.tail
		}
		*l = list{}
	}
	q.used &^= dbit - 1
	q.stale &^= dbit - 1
	q.base = k
}
