package damping

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func sec(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func TestFreshStateClean(t *testing.T) {
	s := NewState(Cisco())
	if s.Suppressed() {
		t.Fatal("fresh state suppressed")
	}
	if got := s.Penalty(0); got != 0 {
		t.Fatalf("fresh penalty = %v", got)
	}
	if s.ReuseIn(0) != 0 {
		t.Fatal("fresh state has a reuse delay")
	}
}

func TestSingleWithdrawalDoesNotSuppress(t *testing.T) {
	s := NewState(Cisco())
	ev := s.Update(0, KindWithdrawal, true)
	if ev.Penalty != 1000 {
		t.Fatalf("penalty = %v, want 1000", ev.Penalty)
	}
	if ev.Suppressed || ev.BecameSuppressed {
		t.Fatal("single withdrawal suppressed the route")
	}
}

// TestThirdPulseTriggersSuppression reproduces the paper's setup: pulses at
// 120 s period (withdrawal every 120 s) with Cisco parameters suppress the
// origin link at the 3rd withdrawal (Sections 5.2, 6.2).
func TestThirdPulseTriggersSuppression(t *testing.T) {
	s := NewState(Cisco())
	ev := s.Update(0, KindWithdrawal, true)
	if ev.Suppressed {
		t.Fatal("suppressed after pulse 1")
	}
	s.Update(sec(60), KindReannouncement, true)
	ev = s.Update(sec(120), KindWithdrawal, true)
	if ev.Suppressed {
		t.Fatalf("suppressed after pulse 2 (penalty %v)", ev.Penalty)
	}
	s.Update(sec(180), KindReannouncement, true)
	ev = s.Update(sec(240), KindWithdrawal, true)
	if !ev.BecameSuppressed {
		t.Fatalf("not suppressed after pulse 3 (penalty %v)", ev.Penalty)
	}
	// Expected penalty: 1000·e^(−λ·240) + 1000·e^(−λ·120) + 1000 ≈ 2744.
	if math.Abs(ev.Penalty-2744) > 5 {
		t.Fatalf("penalty after 3rd withdrawal = %v, want ≈2744", ev.Penalty)
	}
}

func TestPenaltyDecaysBetweenUpdates(t *testing.T) {
	s := NewState(Cisco())
	s.Update(0, KindWithdrawal, true)
	p15 := s.Penalty(15 * time.Minute)
	if math.Abs(p15-500) > 1e-6 {
		t.Fatalf("penalty after one half-life = %v, want 500", p15)
	}
	p30 := s.Penalty(30 * time.Minute)
	if math.Abs(p30-250) > 1e-6 {
		t.Fatalf("penalty after two half-lives = %v, want 250", p30)
	}
}

func TestPenaltyQueryDoesNotMutate(t *testing.T) {
	s := NewState(Cisco())
	s.Update(0, KindWithdrawal, true)
	_ = s.Penalty(time.Hour)
	// Querying far in the future must not materialize decay permanently.
	if got := s.Penalty(15 * time.Minute); math.Abs(got-500) > 1e-6 {
		t.Fatalf("Penalty mutated state: %v, want 500", got)
	}
}

func TestPenaltyCeiling(t *testing.T) {
	s := NewState(Cisco())
	for i := 0; i < 100; i++ {
		s.Update(sec(float64(i)), KindWithdrawal, true)
	}
	max := Cisco().MaxPenalty()
	if got := s.Penalty(sec(99)); got > max+1e-9 {
		t.Fatalf("penalty %v exceeds ceiling %v", got, max)
	}
	// And the implied suppression time never exceeds the max hold-down.
	if r := s.ReuseIn(sec(99)); r > Cisco().MaxHoldDown {
		t.Fatalf("reuse delay %v exceeds max hold-down", r)
	}
}

func TestChargeVeto(t *testing.T) {
	// RCN-filtered updates must not charge, but the state still answers.
	s := NewState(Cisco())
	for i := 0; i < 10; i++ {
		ev := s.Update(sec(float64(i)), KindWithdrawal, false)
		if ev.Increment != 0 {
			t.Fatalf("vetoed update charged %v", ev.Increment)
		}
	}
	if s.Penalty(sec(10)) != 0 {
		t.Fatalf("penalty = %v after vetoed updates, want 0", s.Penalty(sec(10)))
	}
	if s.Suppressed() {
		t.Fatal("suppressed by vetoed updates")
	}
}

func TestSuppressionLifecycle(t *testing.T) {
	s := NewState(Cisco())
	// Three rapid withdrawals: penalty ≈ 3000 ⇒ suppressed.
	s.Update(0, KindWithdrawal, true)
	s.Update(sec(1), KindReannouncement, true)
	s.Update(sec(2), KindWithdrawal, true)
	s.Update(sec(3), KindReannouncement, true)
	ev := s.Update(sec(4), KindWithdrawal, true)
	if !ev.BecameSuppressed {
		t.Fatalf("not suppressed, penalty %v", ev.Penalty)
	}
	if ev.ReuseIn <= 0 {
		t.Fatal("suppressed event carries no reuse delay")
	}
	// The reuse timer would fire at 4s + ReuseIn; before that, TryReuse
	// fails.
	early := sec(4) + ev.ReuseIn/2
	if s.TryReuse(early) {
		t.Fatal("TryReuse succeeded before the penalty decayed")
	}
	if !s.Suppressed() {
		t.Fatal("failed TryReuse lifted suppression")
	}
	// At the scheduled instant it succeeds.
	due := sec(4) + ev.ReuseIn
	if !s.TryReuse(due) {
		t.Fatalf("TryReuse failed at its scheduled time (penalty %v)", s.Penalty(due))
	}
	if s.Suppressed() {
		t.Fatal("still suppressed after successful TryReuse")
	}
}

func TestTryReuseOnUnsuppressedState(t *testing.T) {
	s := NewState(Cisco())
	if !s.TryReuse(0) {
		t.Fatal("TryReuse on clean state returned false")
	}
}

func TestRechargeExtendsSuppression(t *testing.T) {
	// Secondary charging in miniature: a suppressed route that receives
	// another update sees its reuse instant move later.
	s := NewState(Cisco())
	s.Update(0, KindWithdrawal, true)
	s.Update(sec(1), KindReannouncement, true)
	s.Update(sec(2), KindWithdrawal, true)
	s.Update(sec(3), KindReannouncement, true)
	ev := s.Update(sec(4), KindWithdrawal, true)
	if !ev.Suppressed {
		t.Fatal("setup failed: not suppressed")
	}
	firstDue := sec(4) + ev.ReuseIn

	// Re-charge at t=100s with another withdrawal (e.g. triggered by a
	// neighbor's route reuse elsewhere).
	ev2 := s.Update(sec(100), KindWithdrawal, true)
	secondDue := sec(100) + ev2.ReuseIn
	if !ev2.Suppressed || ev2.BecameSuppressed {
		t.Fatalf("re-charge produced wrong flags: %+v", ev2)
	}
	if secondDue <= firstDue {
		t.Fatalf("re-charge did not extend reuse: %v -> %v", firstDue, secondDue)
	}
	// The stale first timer must fail.
	if s.TryReuse(firstDue) {
		t.Fatal("stale reuse timer succeeded after re-charge")
	}
	if !s.TryReuse(secondDue) {
		t.Fatal("extended reuse timer failed")
	}
}

func TestJuniperSuppressesFasterOnReannouncements(t *testing.T) {
	// Juniper charges announcements too, so a withdraw/announce pulse adds
	// 2000 vs. Cisco's 1000; with cutoff 3000 the 2nd pulse suppresses.
	s := NewState(Juniper())
	s.Update(0, KindWithdrawal, true)
	ev := s.Update(sec(60), KindReannouncement, true)
	if ev.Suppressed {
		t.Fatal("Juniper suppressed after 1 pulse")
	}
	s.Update(sec(120), KindWithdrawal, true)
	ev = s.Update(sec(180), KindReannouncement, true)
	if !ev.Suppressed {
		t.Fatalf("Juniper not suppressed after 2 pulses (penalty %v)", ev.Penalty)
	}
}

func TestResetClearsEverything(t *testing.T) {
	r := NewRules(Cisco())
	var m Merit
	for i := 0; i < 5; i++ {
		m.Update(r, sec(float64(i)), KindWithdrawal, true)
	}
	if !m.Suppressed() {
		t.Fatal("setup failed")
	}
	m.Reset()
	if m.Suppressed() || m.Penalty(r, sec(10)) != 0 {
		t.Fatalf("Reset left state dirty: %+v", m)
	}
}

func TestStateStringIncludesPenalty(t *testing.T) {
	s := NewState(Cisco())
	s.Update(0, KindWithdrawal, true)
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

// TestQuickPenaltyNeverNegativeNorAboveCeiling drives a state with random
// update sequences and checks the invariants 0 <= penalty <= ceiling and
// "suppressed implies penalty was once above cutoff".
func TestQuickPenaltyInvariant(t *testing.T) {
	params := Cisco()
	ceiling := params.MaxPenalty()
	f := func(kinds []uint8, gaps []uint16) bool {
		s := NewState(params)
		now := time.Duration(0)
		everAboveCutoff := false
		for i, kRaw := range kinds {
			if i < len(gaps) {
				now += time.Duration(gaps[i]) * time.Millisecond
			} else {
				now += time.Second
			}
			kind := Kind(int(kRaw)%5) + 1
			ev := s.Update(now, kind, true)
			if ev.Penalty < 0 || ev.Penalty > ceiling+1e-9 {
				return false
			}
			if ev.Penalty > params.CutoffThreshold {
				everAboveCutoff = true
			}
			if ev.BecameSuppressed && !everAboveCutoff {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickReuseTimerAlwaysSucceedsWhenArmedCorrectly: if no further updates
// arrive, a timer armed at Update-time ReuseIn always finds the penalty at or
// below the reuse threshold.
func TestQuickReuseTimerAccuracy(t *testing.T) {
	params := Cisco()
	f := func(extra uint8) bool {
		s := NewState(params)
		now := time.Duration(0)
		// Charge until suppressed (2 + extra%4 withdrawal bursts).
		var ev Event
		for i := 0; i < 3+int(extra%4); i++ {
			ev = s.Update(now, KindWithdrawal, true)
			now += time.Second
		}
		if !ev.Suppressed {
			return true // not enough charge; vacuous
		}
		due := now - time.Second + ev.ReuseIn
		return s.TryReuse(due)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
