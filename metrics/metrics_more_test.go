package metrics

import (
	"testing"
	"testing/quick"
	"time"
)

// TestQuickBinsConserveEvents: for any event set and bin width, the bins
// over the full range account for every in-range event exactly once, and
// each bin holds exactly the events in its range.
func TestQuickBinsConserveEvents(t *testing.T) {
	f := func(raw []uint16, widthRaw uint8) bool {
		width := time.Duration(int(widthRaw)+1) * time.Second
		var s EventSeries
		// Sort via insertion into a slice first (Record requires order).
		times := make([]time.Duration, len(raw))
		for i, r := range raw {
			times[i] = time.Duration(r) * time.Second
		}
		sortDurations(times)
		for _, at := range times {
			s.Record(at)
		}
		end := time.Duration(1<<16) * time.Second
		bins := s.Bins(0, end, width)
		total := 0
		for _, b := range bins {
			total += b.Count
			hi := b.Start + width
			if hi > end {
				hi = end
			}
			in := 0
			for _, at := range times {
				if at >= b.Start && at < hi {
					in++
				}
			}
			if b.Count != in {
				return false
			}
		}
		return total == s.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func sortDurations(d []time.Duration) {
	for i := 1; i < len(d); i++ {
		for j := i; j > 0 && d[j] < d[j-1]; j-- {
			d[j], d[j-1] = d[j-1], d[j]
		}
	}
}

// TestQuickStepSeriesLastWriteWins: ValueAt always returns the value of the
// latest Record at or before the query time.
func TestQuickStepSeriesConsistency(t *testing.T) {
	f := func(vals []uint8) bool {
		var s StepSeries
		for i, v := range vals {
			s.Record(time.Duration(i)*time.Second, int(v))
		}
		for i, v := range vals {
			// Query exactly at, and just after, each change point.
			if s.ValueAt(time.Duration(i)*time.Second) != int(v) {
				return false
			}
			if s.ValueAt(time.Duration(i)*time.Second+500*time.Millisecond) != int(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPhasesDegenerateOrderings(t *testing.T) {
	// Reuse before any delivery: charging collapses to the flap end.
	var deliveries, reuses EventSeries
	reuses.Record(10 * time.Second)
	deliveries.Record(20 * time.Second)
	ph := ComputePhases(&deliveries, &reuses, 0, 5*time.Second)
	if !ph.HasRelease {
		t.Fatal("release not detected")
	}
	if ph.ChargingEnd != 5*time.Second {
		t.Fatalf("charging end = %v, want flap end", ph.ChargingEnd)
	}
	if ph.ReleasingDuration() != 10*time.Second {
		t.Fatalf("releasing = %v", ph.ReleasingDuration())
	}
}

func TestFloatSeriesRejectsOutOfOrder(t *testing.T) {
	var s FloatSeries
	s.Record(5*time.Second, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Record did not panic")
		}
	}()
	s.Record(time.Second, 2)
}
