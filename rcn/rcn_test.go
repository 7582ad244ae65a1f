package rcn

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestCauseZero(t *testing.T) {
	var c Cause
	if !c.IsZero() {
		t.Fatal("zero cause not IsZero")
	}
	if c.String() != "{none}" {
		t.Fatalf("zero cause String = %q", c.String())
	}
	valid := Cause{U: 1, V: 2, Status: LinkDown, Seq: 1}
	if valid.IsZero() {
		t.Fatal("valid cause IsZero")
	}
}

func TestCauseString(t *testing.T) {
	c := Cause{U: 3, V: 17, Status: LinkDown, Seq: 5}
	if got := c.String(); got != "{[3 17], down, 5}" {
		t.Fatalf("String = %q", got)
	}
	up := Cause{U: 1, V: 2, Status: LinkUp, Seq: 2}
	if got := up.String(); got != "{[1 2], up, 2}" {
		t.Fatalf("String = %q", got)
	}
}

func TestStatusString(t *testing.T) {
	if LinkDown.String() != "down" || LinkUp.String() != "up" {
		t.Fatal("status strings wrong")
	}
	if Status(9).String() != "Status(9)" {
		t.Fatal("unknown status string wrong")
	}
}

func TestSequencerMonotonic(t *testing.T) {
	var s Sequencer
	for want := uint64(1); want <= 10; want++ {
		status := LinkDown
		if want%2 == 0 {
			status = LinkUp
		}
		c := s.Next(0, 1, status)
		if c.Seq != want {
			t.Fatalf("seq = %d, want %d", c.Seq, want)
		}
		if c.IsZero() {
			t.Fatal("sequencer produced zero cause")
		}
	}
}

func TestWitnessNewThenSeen(t *testing.T) {
	h := NewHistory(10)
	c := Cause{U: 1, V: 2, Status: LinkDown, Seq: 1}
	if !h.Witness(c) {
		t.Fatal("first Witness = false, want true (new cause charges)")
	}
	for i := 0; i < 5; i++ {
		if h.Witness(c) {
			t.Fatal("repeated Witness = true, want false (seen cause must not charge)")
		}
	}
	if h.Len() != 1 {
		t.Fatalf("Len = %d, want 1", h.Len())
	}
}

func TestWitnessDistinguishesFields(t *testing.T) {
	h := NewHistory(10)
	base := Cause{U: 1, V: 2, Status: LinkDown, Seq: 1}
	variants := []Cause{
		{U: 9, V: 2, Status: LinkDown, Seq: 1},
		{U: 1, V: 9, Status: LinkDown, Seq: 1},
		{U: 1, V: 2, Status: LinkUp, Seq: 1},
		{U: 1, V: 2, Status: LinkDown, Seq: 2},
	}
	if !h.Witness(base) {
		t.Fatal("base not new")
	}
	for i, v := range variants {
		if !h.Witness(v) {
			t.Fatalf("variant %d treated as seen", i)
		}
	}
	if h.Len() != len(variants)+1 {
		t.Fatalf("Len = %d", h.Len())
	}
}

func TestWitnessZeroCauseAlwaysCharges(t *testing.T) {
	h := NewHistory(10)
	for i := 0; i < 3; i++ {
		if !h.Witness(Cause{}) {
			t.Fatal("zero cause Witness = false; classic updates must charge")
		}
	}
	if h.Len() != 0 {
		t.Fatalf("zero causes were recorded: Len = %d", h.Len())
	}
}

func TestHistoryEvictionFIFO(t *testing.T) {
	h := NewHistory(3)
	mk := func(seq uint64) Cause { return Cause{U: 0, V: 1, Status: LinkDown, Seq: seq} }
	for seq := uint64(1); seq <= 3; seq++ {
		h.Witness(mk(seq))
	}
	if h.Len() != 3 {
		t.Fatalf("Len = %d", h.Len())
	}
	// Inserting a 4th evicts the oldest (seq 1).
	h.Witness(mk(4))
	if h.Len() != 3 {
		t.Fatalf("Len after eviction = %d", h.Len())
	}
	if h.holds(mk(1)) {
		t.Fatal("oldest cause not evicted")
	}
	for seq := uint64(2); seq <= 4; seq++ {
		if !h.holds(mk(seq)) {
			t.Fatalf("cause %d wrongly evicted", seq)
		}
	}
	// Evicted causes count as new again (bounded memory trade-off).
	if !h.Witness(mk(1)) {
		t.Fatal("evicted cause not treated as new")
	}
	// That re-insert must evict seq 2 (now oldest).
	if h.holds(mk(2)) {
		t.Fatal("FIFO order violated on re-insert")
	}
}

func TestNewHistoryDefaultCapacity(t *testing.T) {
	for _, capacity := range []int{0, -5} {
		h := NewHistory(capacity)
		mk := func(seq uint64) Cause { return Cause{U: 0, V: 1, Status: LinkUp, Seq: seq} }
		for seq := uint64(1); seq <= DefaultHistorySize; seq++ {
			h.Witness(mk(seq))
		}
		if h.Len() != DefaultHistorySize {
			t.Fatalf("capacity %d: Len = %d, want %d", capacity, h.Len(), DefaultHistorySize)
		}
	}
}

var historySink *History

// TestNewHistoryAllocatesOnDemand pins that a fresh history costs its header,
// not its bound: an RCN network builds one per (router, peer) twice per
// warm-up, and a map sized to the 1024-cause default was most of a figure
// pass's allocation.
func TestNewHistoryAllocatesOnDemand(t *testing.T) {
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			historySink = NewHistory(0)
		}
	})
	if got := r.AllocedBytesPerOp(); got >= 1024 {
		t.Fatalf("NewHistory(0) allocates %d bytes, want < 1 KiB", got)
	}
}

// TestQuickWitnessSetSemantics: within capacity, Witness returns true exactly
// once per distinct cause regardless of arrival order.
func TestQuickWitnessSetSemantics(t *testing.T) {
	f := func(seqs []uint8) bool {
		h := NewHistory(1024)
		distinct := make(map[Cause]bool)
		for _, s := range seqs {
			c := Cause{U: 1, V: 2, Status: LinkDown, Seq: uint64(s) + 1}
			isNew := h.Witness(c)
			if isNew == distinct[c] {
				return false // new iff not previously seen
			}
			distinct[c] = true
		}
		return h.Len() == len(distinct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEvictionNeverExceedsCapacity fuzzes ring-buffer bookkeeping.
func TestQuickEvictionBookkeeping(t *testing.T) {
	f := func(seqs []uint16, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		h := NewHistory(capacity)
		for _, s := range seqs {
			h.Witness(Cause{U: 1, V: 2, Status: LinkUp, Seq: uint64(s) + 1})
			if h.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWitness(b *testing.B) {
	h := NewHistory(1024)
	for i := 0; i < b.N; i++ {
		h.Witness(Cause{U: 1, V: 2, Status: LinkDown, Seq: uint64(i % 2048)})
	}
}

func ExampleHistory_Witness() {
	var seq Sequencer
	h := NewHistory(0)
	down := seq.Next(7, 8, LinkDown)
	fmt.Println(h.Witness(down)) // first sight: charge the penalty
	fmt.Println(h.Witness(down)) // path-exploration copy: no charge
	// Output:
	// true
	// false
}

// holds reports whether the cause is in the history without recording it.
func (h *History) holds(c Cause) bool {
	_, ok := h.seen[c]
	return ok
}
