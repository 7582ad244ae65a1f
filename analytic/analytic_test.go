package analytic

import (
	"math"
	"testing"
	"time"

	"rfd/damping"
)

const interval = 60 * time.Second

func TestPulseTrainShape(t *testing.T) {
	events := PulseTrain(3, interval)
	if len(events) != 6 {
		t.Fatalf("len = %d, want 6", len(events))
	}
	for i, e := range events {
		wantAt := time.Duration(i) * interval
		if e.At != wantAt {
			t.Fatalf("event %d at %v, want %v", i, e.At, wantAt)
		}
		wantKind := damping.KindWithdrawal
		if i%2 == 1 {
			wantKind = damping.KindReannouncement
		}
		if e.Kind != wantKind {
			t.Fatalf("event %d kind %v, want %v", i, e.Kind, wantKind)
		}
	}
	// The final event is always an announcement (Section 5.1).
	if events[len(events)-1].Kind != damping.KindReannouncement {
		t.Fatal("final event is not an announcement")
	}
}

func TestPulseTrainEmpty(t *testing.T) {
	if PulseTrain(0, interval) != nil {
		t.Fatal("PulseTrain(0) != nil")
	}
	if PulseTrain(-3, interval) != nil {
		t.Fatal("PulseTrain(-3) != nil")
	}
}

func TestPredictNoFlapsNoDelay(t *testing.T) {
	// With no flaps there is no final announcement, so there is no
	// convergence event at all.
	pred, err := PredictPulses(damping.Cisco(), 0, interval, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Suppressed || pred.Convergence != 0 {
		t.Fatalf("prediction = %+v", pred)
	}
}

// TestIntendedBehaviorSmallFlapCounts pins the paper's Section 5.2
// discussion: with Cisco parameters and 60 s flapping interval, n = 1 and 2
// do not trigger suppression (intended convergence = normal t_up), n >= 3 do.
func TestIntendedBehaviorSmallFlapCounts(t *testing.T) {
	tup := 30 * time.Second
	for n := 1; n <= 10; n++ {
		pred, err := PredictPulses(damping.Cisco(), n, interval, tup)
		if err != nil {
			t.Fatal(err)
		}
		if n < 3 {
			if pred.Suppressed {
				t.Fatalf("n=%d: suppressed, want not suppressed", n)
			}
			if pred.Convergence != tup {
				t.Fatalf("n=%d: convergence %v, want %v", n, pred.Convergence, tup)
			}
		} else {
			if !pred.Suppressed {
				t.Fatalf("n=%d: not suppressed, want suppressed", n)
			}
			if pred.Convergence <= 20*time.Minute {
				// Section 3: with Cisco defaults r is at least 20 minutes.
				t.Fatalf("n=%d: convergence %v, want > 20m", n, pred.Convergence)
			}
		}
	}
}

func TestPenaltyAccumulationMatchesClosedForm(t *testing.T) {
	// p(k) = Σ f(i)·e^{−λ Σ_{j>i} w(j)} + f(k) — evaluate the closed form
	// directly for 3 pulses and compare.
	params := damping.Cisco()
	lambda := params.Lambda()
	pred, err := PredictPulses(params, 3, interval, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Withdrawals at 0, 120, 240 s; announcements contribute 0 with Cisco.
	// Final event (announcement) at 300 s.
	want := 1000*math.Exp(-lambda*300) + 1000*math.Exp(-lambda*180) + 1000*math.Exp(-lambda*60)
	if math.Abs(pred.FinalPenalty-want) > 1e-6 {
		t.Fatalf("final penalty = %v, closed form = %v", pred.FinalPenalty, want)
	}
}

func TestSuppressionOnset(t *testing.T) {
	got, err := SuppressionOnset(damping.Cisco(), interval, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("Cisco onset = %d, want 3", got)
	}
	got, err = SuppressionOnset(damping.Juniper(), interval, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("Juniper onset = %d, want 2", got)
	}
}

func TestSuppressionOnsetNever(t *testing.T) {
	// Slow flapping (one pulse per 2 hours) never accumulates enough
	// penalty under Cisco parameters.
	got, err := SuppressionOnset(damping.Cisco(), 2*time.Hour, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("onset = %d, want 0 (never)", got)
	}
}

func TestConvergenceMonotoneInPulses(t *testing.T) {
	// More pulses ⇒ higher final penalty ⇒ longer intended convergence,
	// saturating at the max hold-down.
	params := damping.Cisco()
	prev := time.Duration(0)
	for n := 3; n <= 12; n++ {
		pred, err := PredictPulses(params, n, interval, 0)
		if err != nil {
			t.Fatal(err)
		}
		if pred.Convergence < prev {
			t.Fatalf("n=%d: convergence %v < previous %v", n, pred.Convergence, prev)
		}
		if pred.Convergence > params.MaxHoldDown {
			t.Fatalf("n=%d: convergence %v beyond max hold-down", n, pred.Convergence)
		}
		prev = pred.Convergence
	}
}

func TestPredictMidTrainReuse(t *testing.T) {
	// Rapid burst suppresses, then a multi-hour gap lets the reuse timer
	// fire before the next (single) withdrawal; the final state must not be
	// suppressed (one fresh withdrawal alone cannot re-suppress).
	params := damping.Cisco()
	events := []damping.TimedUpdate{
		{At: 0, Kind: damping.KindWithdrawal},
		{At: 1 * time.Second, Kind: damping.KindReannouncement},
		{At: 2 * time.Second, Kind: damping.KindWithdrawal},
		{At: 3 * time.Second, Kind: damping.KindReannouncement},
		{At: 4 * time.Second, Kind: damping.KindWithdrawal},
		{At: 3 * time.Hour, Kind: damping.KindWithdrawal},
	}
	pred, err := Predict(params, events, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pred.SuppressedAtEvent != 5 {
		t.Fatalf("suppressed at event %d, want 5", pred.SuppressedAtEvent)
	}
	if pred.Suppressed {
		t.Fatal("still suppressed after mid-train reuse plus one withdrawal")
	}
}

func TestPredictRejectsBadInput(t *testing.T) {
	bad := damping.Cisco()
	bad.HalfLife = 0
	if _, err := Predict(bad, nil, 0); err == nil {
		t.Fatal("invalid params accepted")
	}
	events := []damping.TimedUpdate{
		{At: time.Minute, Kind: damping.KindWithdrawal},
		{At: time.Second, Kind: damping.KindReannouncement},
	}
	if _, err := Predict(damping.Cisco(), events, 0); err == nil {
		t.Fatal("out-of-order events accepted")
	}
}

func TestPenaltyTraceShape(t *testing.T) {
	events := PulseTrain(3, interval)
	trace, err := PenaltyTrace(damping.Cisco(), events, 20*time.Minute, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	// Monotone time.
	for i := 1; i < len(trace); i++ {
		if trace[i].At < trace[i-1].At {
			t.Fatalf("trace time goes backwards at %d", i)
		}
	}
	// The peak must be the post-third-withdrawal value ≈ 2744.
	max := 0.0
	for _, p := range trace {
		if p.Penalty > max {
			max = p.Penalty
		}
	}
	if math.Abs(max-2744) > 10 {
		t.Fatalf("trace max = %v, want ≈2744", max)
	}
	// The trace decays after the last event: final sample below reuse-ish
	// levels after 20 minutes of decay from ~2700.
	final := trace[len(trace)-1].Penalty
	if final >= max || final <= 0 {
		t.Fatalf("final penalty %v not decaying from max %v", final, max)
	}
}

func TestPenaltyTraceValidation(t *testing.T) {
	if _, err := PenaltyTrace(damping.Cisco(), nil, time.Minute, 0); err == nil {
		t.Fatal("zero spacing accepted")
	}
	bad := damping.Cisco()
	bad.ReuseThreshold = -1
	if _, err := PenaltyTrace(bad, nil, time.Minute, time.Second); err == nil {
		t.Fatal("invalid params accepted")
	}
}
