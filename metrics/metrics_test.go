package metrics

import (
	"math"
	"testing"
	"time"
)

func sec(s int) time.Duration { return time.Duration(s) * time.Second }

func TestEventSeriesBasics(t *testing.T) {
	var s EventSeries
	if s.Count() != 0 {
		t.Fatal("fresh series non-empty")
	}
	if _, ok := s.First(); ok {
		t.Fatal("First on empty ok")
	}
	if _, ok := s.Last(); ok {
		t.Fatal("Last on empty ok")
	}
	for _, at := range []int{1, 3, 3, 7} {
		s.Record(sec(at))
	}
	if s.Count() != 4 {
		t.Fatalf("Count = %d", s.Count())
	}
	first, _ := s.First()
	last, _ := s.Last()
	if first != sec(1) || last != sec(7) {
		t.Fatalf("First/Last = %v/%v", first, last)
	}
}

func TestEventSeriesRejectsOutOfOrder(t *testing.T) {
	var s EventSeries
	s.Record(sec(5))
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Record did not panic")
		}
	}()
	s.Record(sec(4))
}

func TestBins(t *testing.T) {
	var s EventSeries
	for _, at := range []int{0, 1, 4, 5, 6, 12, 14} {
		s.Record(sec(at))
	}
	bins := s.Bins(0, sec(15), sec(5))
	if len(bins) != 3 {
		t.Fatalf("got %d bins", len(bins))
	}
	wantCounts := []int{3, 2, 2} // [0,5): 0,1,4; [5,10): 5,6; [10,15): 12,14
	for i, want := range wantCounts {
		if bins[i].Count != want {
			t.Fatalf("bin %d count = %d, want %d", i, bins[i].Count, want)
		}
		if bins[i].Start != time.Duration(i)*sec(5) {
			t.Fatalf("bin %d start = %v", i, bins[i].Start)
		}
	}
}

func TestBinsIgnoreOutOfRange(t *testing.T) {
	var s EventSeries
	s.Record(sec(1))
	s.Record(sec(100))
	bins := s.Bins(0, sec(10), sec(5))
	total := 0
	for _, b := range bins {
		total += b.Count
	}
	if total != 1 {
		t.Fatalf("out-of-range events counted: total = %d", total)
	}
}

func TestBinsPartialFinal(t *testing.T) {
	var s EventSeries
	s.Record(sec(12))
	bins := s.Bins(0, sec(13), sec(5))
	if len(bins) != 3 {
		t.Fatalf("got %d bins for 13s/5s, want 3", len(bins))
	}
	if bins[2].Count != 1 {
		t.Fatal("event in partial final bin lost")
	}
}

func TestBinsEdgeCases(t *testing.T) {
	var s EventSeries
	if got := s.Bins(sec(5), sec(5), sec(1)); got != nil {
		t.Fatal("empty range returned bins")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero width did not panic")
		}
	}()
	s.Bins(0, sec(10), 0)
}

func TestStepSeries(t *testing.T) {
	var s StepSeries
	if s.ValueAt(sec(100)) != 0 {
		t.Fatal("empty step series nonzero")
	}
	s.Record(sec(10), 5)
	s.Record(sec(20), 3)
	cases := []struct {
		at   time.Duration
		want int
	}{
		{sec(0), 0}, {sec(9), 0}, {sec(10), 5}, {sec(15), 5}, {sec(20), 3}, {sec(99), 3},
	}
	for _, c := range cases {
		if got := s.ValueAt(c.at); got != c.want {
			t.Fatalf("ValueAt(%v) = %d, want %d", c.at, got, c.want)
		}
	}
	if s.Max() != 5 {
		t.Fatalf("Max = %d", s.Max())
	}
}

func TestStepSeriesSameTimeOverwrites(t *testing.T) {
	var s StepSeries
	s.Record(sec(10), 5)
	s.Record(sec(10), 7)
	if got := s.ValueAt(sec(10)); got != 7 {
		t.Fatalf("ValueAt = %d, want 7 (last write wins)", got)
	}
	if len(s.points) != 1 {
		t.Fatal("same-time record appended instead of overwriting")
	}
}

func TestStepSeriesRejectsOutOfOrder(t *testing.T) {
	var s StepSeries
	s.Record(sec(10), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order step did not panic")
		}
	}()
	s.Record(sec(5), 2)
}

func TestFloatSeries(t *testing.T) {
	var s FloatSeries
	s.Record(sec(1), 100)
	s.Record(sec(2), 300)
	s.Record(sec(3), 200)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	pts := s.Points()
	if pts[1].Value != 300 {
		t.Fatalf("Points()[1] = %v, want 300", pts[1].Value)
	}
	pts[0].Value = -1
	if s.Points()[0].Value != 100 {
		t.Fatal("Points aliases internal storage")
	}
}

func TestComputePhasesFullEpisode(t *testing.T) {
	var deliveries, reuses EventSeries
	// Charging: updates from 0 to 120 s. Suppression: quiet. Releasing:
	// reuse at 1574 s triggers updates until 5147 s (the paper's n=1 run).
	for _, at := range []int{1, 30, 60, 90, 120} {
		deliveries.Record(sec(at))
	}
	for _, at := range []int{1575, 1600, 3000, 5147} {
		deliveries.Record(sec(at))
	}
	reuses.Record(sec(1574))
	ph := ComputePhases(&deliveries, &reuses, 0, sec(60))
	if !ph.HasRelease {
		t.Fatal("no releasing phase detected")
	}
	if ph.ChargingEnd != sec(120) {
		t.Fatalf("charging end = %v, want 120s", ph.ChargingEnd)
	}
	if ph.ReleaseStart != sec(1574) {
		t.Fatalf("release start = %v", ph.ReleaseStart)
	}
	if ph.End != sec(5147) {
		t.Fatalf("end = %v", ph.End)
	}
	if got := ph.ConvergenceTime(); got != sec(5147-60) {
		t.Fatalf("convergence = %v", got)
	}
	if got := ph.SuppressionDuration(); got != sec(1574-120) {
		t.Fatalf("suppression = %v", got)
	}
	if got := ph.ReleasingDuration(); got != sec(5147-1574) {
		t.Fatalf("releasing = %v", got)
	}
	// Releasing fraction ≈ (5147-1574)/(5147-60) ≈ 0.70 — the paper's 70 %.
	if f := ph.ReleasingFraction(); math.Abs(f-0.70) > 0.01 {
		t.Fatalf("releasing fraction = %v, want ≈0.70", f)
	}
	if ph.String() == "" {
		t.Fatal("empty String")
	}
}

func TestComputePhasesNoReuse(t *testing.T) {
	var deliveries, reuses EventSeries
	for _, at := range []int{1, 10, 40} {
		deliveries.Record(sec(at))
	}
	ph := ComputePhases(&deliveries, &reuses, 0, sec(5))
	if ph.HasRelease {
		t.Fatal("phantom releasing phase")
	}
	if ph.ChargingEnd != sec(40) || ph.End != sec(40) {
		t.Fatalf("phases = %+v", ph)
	}
	if ph.SuppressionDuration() != 0 || ph.ReleasingDuration() != 0 || ph.ReleasingFraction() != 0 {
		t.Fatal("phantom durations")
	}
	if ph.String() == "" {
		t.Fatal("empty String")
	}
}

func TestComputePhasesNoUpdates(t *testing.T) {
	var deliveries, reuses EventSeries
	ph := ComputePhases(&deliveries, &reuses, 0, sec(60))
	if ph.ConvergenceTime() != 0 {
		t.Fatalf("convergence = %v, want 0", ph.ConvergenceTime())
	}
	if ph.ChargingDuration() != sec(60) {
		// Charging collapses to the flap window itself.
		t.Fatalf("charging = %v", ph.ChargingDuration())
	}
}
