// Package metrics provides the measurement primitives the experiments use to
// reproduce the paper's figures: event series with fixed-width binning (the
// 5-second update series of Fig 10), step series (the damped-link count of
// Fig 10), float series (the penalty traces of Figs 3 and 7), and the
// paper's four-state phase decomposition (charging / suppression /
// releasing / converged, Section 4.1).
//
// The package is deliberately independent of the bgp engine; the experiment
// layer translates bgp.Hooks callbacks into metric recordings.
package metrics

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// EventSeries records the times of point events (e.g. update deliveries) in
// nondecreasing order. The zero value is an empty series ready for use.
type EventSeries struct {
	times []time.Duration
}

// Record appends an event. Events must arrive in nondecreasing time order
// (the simulator guarantees this); out-of-order records panic because they
// would silently corrupt binning.
func (s *EventSeries) Record(at time.Duration) {
	if n := len(s.times); n > 0 && at < s.times[n-1] {
		panic(fmt.Sprintf("metrics: event at %v before last %v", at, s.times[n-1]))
	}
	s.times = append(s.times, at)
}

// Clone returns an independent copy of the series.
func (s *EventSeries) Clone() *EventSeries { return &EventSeries{times: slices.Clone(s.times)} }

// Count returns the total number of events.
func (s *EventSeries) Count() int { return len(s.times) }

// Bytes returns the size of the series' backing array: its capacity, which is
// what the series holds in memory, not its length (0 for a nil series).
func (s *EventSeries) Bytes() int64 {
	if s == nil {
		return 0
	}
	return int64(cap(s.times)) * 8
}

// Times returns a copy of the event times.
func (s *EventSeries) Times() []time.Duration {
	out := make([]time.Duration, len(s.times))
	copy(out, s.times)
	return out
}

// First returns the first event time (0, false when empty).
func (s *EventSeries) First() (time.Duration, bool) {
	if len(s.times) == 0 {
		return 0, false
	}
	return s.times[0], true
}

// Last returns the last event time (0, false when empty).
func (s *EventSeries) Last() (time.Duration, bool) {
	if len(s.times) == 0 {
		return 0, false
	}
	return s.times[len(s.times)-1], true
}

// Bin is one fixed-width histogram bucket.
type Bin struct {
	// Start is the bucket's inclusive lower bound.
	Start time.Duration
	// Count is the number of events in [Start, Start+width).
	Count int
}

// Bins buckets the events from start to end into fixed-width bins (the
// paper's update series uses width = 5 s). The final bin is included even if
// partially covered. It panics on non-positive width; it returns nil when
// end <= start.
func (s *EventSeries) Bins(start, end, width time.Duration) []Bin {
	if width <= 0 {
		panic("metrics: non-positive bin width")
	}
	if end <= start {
		return nil
	}
	n := int((end - start + width - 1) / width)
	bins := make([]Bin, n)
	for i := range bins {
		bins[i].Start = start + time.Duration(i)*width
	}
	for _, t := range s.times {
		if t < start || t >= end {
			continue
		}
		bins[(t-start)/width].Count++
	}
	return bins
}

// StepPoint is one change of an integer step function.
type StepPoint struct {
	At    time.Duration
	Value int
}

// StepSeries records an integer quantity that changes at discrete instants
// (e.g. the number of suppressed links). The zero value starts at 0.
type StepSeries struct {
	points []StepPoint
}

// Record notes that the quantity has the given value from time at onward.
// Times must be nondecreasing; equal times overwrite (last write wins).
func (s *StepSeries) Record(at time.Duration, value int) {
	if n := len(s.points); n > 0 {
		if at < s.points[n-1].At {
			panic(fmt.Sprintf("metrics: step at %v before last %v", at, s.points[n-1].At))
		}
		if at == s.points[n-1].At {
			s.points[n-1].Value = value
			return
		}
	}
	s.points = append(s.points, StepPoint{At: at, Value: value})
}

// Clone returns an independent copy of the series.
func (s *StepSeries) Clone() *StepSeries { return &StepSeries{points: slices.Clone(s.points)} }

// Bytes returns the size of the series' backing array, as EventSeries.Bytes.
func (s *StepSeries) Bytes() int64 {
	if s == nil {
		return 0
	}
	return int64(cap(s.points)) * 16
}

// ValueAt returns the value in effect at time t (0 before the first record).
func (s *StepSeries) ValueAt(t time.Duration) int {
	idx := sort.Search(len(s.points), func(i int) bool { return s.points[i].At > t })
	if idx == 0 {
		return 0
	}
	return s.points[idx-1].Value
}

// Max returns the largest recorded value (0 when empty).
func (s *StepSeries) Max() int {
	max := 0
	for _, p := range s.points {
		if p.Value > max {
			max = p.Value
		}
	}
	return max
}

// Points returns a copy of the change points.
func (s *StepSeries) Points() []StepPoint {
	out := make([]StepPoint, len(s.points))
	copy(out, s.points)
	return out
}

// FloatPoint is one sample of a real-valued series.
type FloatPoint struct {
	At    time.Duration
	Value float64
}

// FloatSeries records real-valued samples in nondecreasing time order
// (penalty traces). The zero value is empty and ready.
type FloatSeries struct {
	points []FloatPoint
}

// Record appends a sample.
func (s *FloatSeries) Record(at time.Duration, v float64) {
	if n := len(s.points); n > 0 && at < s.points[n-1].At {
		panic(fmt.Sprintf("metrics: sample at %v before last %v", at, s.points[n-1].At))
	}
	s.points = append(s.points, FloatPoint{At: at, Value: v})
}

// Clone returns an independent copy of the series.
func (s *FloatSeries) Clone() *FloatSeries { return &FloatSeries{points: slices.Clone(s.points)} }

// Len returns the number of samples.
func (s *FloatSeries) Len() int { return len(s.points) }

// Bytes returns the size of the series' backing array, as EventSeries.Bytes.
func (s *FloatSeries) Bytes() int64 {
	if s == nil {
		return 0
	}
	return int64(cap(s.points)) * 16
}

// Points returns a copy of the samples.
func (s *FloatSeries) Points() []FloatPoint {
	out := make([]FloatPoint, len(s.points))
	copy(out, s.points)
	return out
}

// Max returns the largest sample value (0 when empty).
func (s *FloatSeries) Max() float64 {
	max := 0.0
	for _, p := range s.points {
		if p.Value > max {
			max = p.Value
		}
	}
	return max
}
