package experiment

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"rfd/bgp"
	"rfd/metrics"
	"rfd/trace"
)

// TestObserverConsumersAgree: the recorder and the trace read one stream. A
// watched pair's penalty trace is that pair's penalty events in the trace log,
// and neither consumer changes with the other switched off — in a single run
// and on a sweep's branches. A traced run observes every penalty, a watched
// one the watched pairs', whichever the other asks for. The sharded engine
// neither traces nor forks: its watched runs, one per count, must record the
// penalties the sequential log holds.
func TestObserverConsumersAgree(t *testing.T) {
	// The ISP watching the origin, and two of its neighbours watching it.
	watch := []PenaltyWatch{{Router: 7, Peer: 25}, {Router: 2, Peer: 7}, {Router: 12, Peer: 7}}
	// observe runs sc, traced and watched as asked, and returns the watched
	// pairs' penalty points (every point's, in ascending pulse order) and the
	// log.
	observe := func(t *testing.T, sc Scenario, sweep, traced, watched bool) (map[PenaltyWatch][]metrics.FloatPoint, *trace.Log) {
		t.Helper()
		if traced {
			sc.Trace = trace.NewLog(math.MaxInt)
		}
		if watched {
			sc.Watch = watch
		}
		var results []*Result
		switch {
		case sweep && sc.Shards <= 1:
			pts, err := Sweep(sc, []int{3, 1})
			if err != nil {
				t.Fatal(err)
			}
			results = []*Result{pts[1].Result, pts[0].Result}
		case sweep:
			results = sweepOrRuns(t, sc, []int{1, 3})
		default:
			res, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			results = []*Result{res}
		}
		penalties := make(map[PenaltyWatch][]metrics.FloatPoint)
		for _, res := range results {
			for w, tr := range res.PenaltyTraces {
				penalties[w] = append(penalties[w], tr.Points()...)
			}
		}
		return penalties, sc.Trace
	}
	jsonl := func(log *trace.Log) []byte {
		var b bytes.Buffer
		if err := log.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}

	for _, shards := range []int{1, 2} {
		for _, sweep := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/sweep=%t", shards, sweep), func(t *testing.T) {
				sc := Scenario{Graph: smallMesh(t), ISP: 7, Config: dampingCfg(), Pulses: 3}
				both, log := observe(t, sc, sweep, true, true)
				sc.Shards = shards

				fromLog := make(map[PenaltyWatch][]metrics.FloatPoint)
				for _, e := range log.Events() {
					if e.Kind != trace.KindPenalty {
						continue
					}
					w := PenaltyWatch{Router: bgp.RouterID(e.Router), Peer: bgp.RouterID(e.Peer)}
					fromLog[w] = append(fromLog[w], metrics.FloatPoint{At: e.At, Value: e.Penalty})
				}
				for _, w := range watch {
					if len(both[w]) == 0 {
						t.Fatalf("watched pair %+v recorded no penalty: nothing to compare", w)
					}
					if !reflect.DeepEqual(both[w], fromLog[w]) {
						t.Errorf("pair %+v: penalty trace %v, the log's penalty events %v", w, both[w], fromLog[w])
					}
				}
				if len(fromLog) <= len(watch) {
					t.Errorf("the log holds penalties of %d pairs: a traced run observes every pair's", len(fromLog))
				}

				if watchedOnly, _ := observe(t, sc, sweep, false, true); !reflect.DeepEqual(watchedOnly, both) {
					t.Errorf("watched-only penalty traces %v, traced and watched %v", watchedOnly, both)
				}
				if shards > 1 {
					return
				}
				if _, tracedOnly := observe(t, sc, sweep, true, false); !bytes.Equal(jsonl(tracedOnly), jsonl(log)) {
					t.Errorf("traced-only log (%d events) differs from the traced and watched one (%d events)", tracedOnly.Len(), log.Len())
				}
			})
		}
	}
}
