package damping

import (
	"testing"
	"time"
)

// sweepTo drives the wheel through every sweep boundary up to now,
// recording lifted keys.
func sweepTo(w *Wheel, now time.Duration, lifted *[]uint64) {
	w.Sweep(now, func(key uint64) { *lifted = append(*lifted, key) })
}

// exactReuseInstant computes when the exact state's penalty decays to the
// reuse threshold, starting from its state at the given instant.
func exactReuseInstant(s *State, at time.Duration) time.Duration {
	return at + s.ReuseIn(at)
}

func TestWheelSuppressionAndReuseLag(t *testing.T) {
	params := Cisco()
	cfg := DefaultWheelConfig()
	w := NewWheel(params, cfg)
	ws := w.NewState(7)
	ex := NewState(params)

	// Three quick withdrawal/re-announcement flaps suppress under Cisco
	// parameters (1000 per withdrawal, cutoff 2000).
	var lastEx Event
	for i := 0; i < 3; i++ {
		at := sec(float64(i) * 30.5)
		ws.Update(at, KindWithdrawal, true)
		lastEx = ex.Update(at, KindWithdrawal, true)
		at2 := at + sec(1.25)
		ws.Update(at2, KindReannouncement, true)
		lastEx = ex.Update(at2, KindReannouncement, true)
	}
	if !ws.Suppressed() || !lastEx.Suppressed {
		t.Fatalf("both engines should be suppressed (wheel=%t exact=%t)", ws.Suppressed(), lastEx.Suppressed)
	}
	if _, enrolled := ws.ReuseAt(); !enrolled {
		t.Fatal("suppressed wheel state must be enrolled in a reuse list")
	}
	if w.Enrolled() != 1 {
		t.Fatalf("Enrolled() = %d, want 1", w.Enrolled())
	}

	exactLift := exactReuseInstant(ex, sec(62))
	var lifted []uint64
	now := sec(62)
	for ws.Suppressed() {
		now = w.NextSweepAt(now)
		sweepTo(w, now, &lifted)
		if now > exactLift+time.Hour {
			t.Fatal("wheel never lifted suppression")
		}
	}
	wheelLift := now
	if len(lifted) != 1 || lifted[0] != 7 {
		t.Fatalf("lift callback got %v, want [7]", lifted)
	}
	if _, enrolled := ws.ReuseAt(); enrolled {
		t.Fatal("lifted state must not stay enrolled")
	}
	// Documented bound: the wheel's penalty can deviate one decay tick
	// either way, so it lifts no more than one tick before the exact reuse
	// instant and no later than one tick plus one sweep period after it.
	if wheelLift < exactLift-cfg.DeltaT-time.Millisecond {
		t.Fatalf("wheel lifted at %v, more than one tick before exact reuse instant %v",
			wheelLift, exactLift)
	}
	if max := exactLift + cfg.DeltaT + cfg.DeltaTReuse; wheelLift > max {
		t.Fatalf("wheel lifted at %v, after bound %v (exact %v)", wheelLift, max, exactLift)
	}
}

func TestWheelReuseLatencyDistribution(t *testing.T) {
	params := Cisco()
	cfg := DefaultWheelConfig()
	w := NewWheel(params, cfg)
	const n = 2000
	type pair struct {
		ws *WheelState
		ex *State
	}
	streams := make([]pair, n)
	for i := range streams {
		streams[i] = pair{ws: w.NewState(uint64(i)), ex: NewState(params)}
	}
	// Stagger suppression onset across the sweep period with deterministic
	// sub-second phases, three withdrawals each.
	base := sec(10)
	for i, p := range streams {
		phase := time.Duration(i%997) * (7 * time.Millisecond)
		for k := 0; k < 3; k++ {
			at := base + phase + time.Duration(k)*sec(2)
			p.ws.Update(at, KindWithdrawal, true)
			p.ex.Update(at, KindWithdrawal, true)
		}
		if !p.ws.Suppressed() || !p.ex.Suppressed() {
			t.Fatalf("stream %d not suppressed", i)
		}
	}

	// Drain the wheel, recording every stream's lift instant.
	liftAt := make(map[uint64]time.Duration, n)
	now := base + sec(10)
	for w.Enrolled() > 0 {
		now = w.NextSweepAt(now)
		at := now
		w.Sweep(now, func(key uint64) { liftAt[key] = at })
	}

	var worst, sum time.Duration
	for i, p := range streams {
		exact := exactReuseInstant(p.ex, base+sec(10))
		got, ok := liftAt[uint64(i)]
		if !ok {
			t.Fatalf("stream %d never lifted", i)
		}
		lag := got - exact
		if lag < -cfg.DeltaT-time.Millisecond {
			t.Fatalf("stream %d lifted %v before its exact reuse instant (bound %v)",
				i, -lag, cfg.DeltaT)
		}
		if bound := cfg.DeltaT + cfg.DeltaTReuse; lag > bound {
			t.Fatalf("stream %d reuse lag %v exceeds bound %v", i, lag, bound)
		}
		if lag > worst {
			worst = lag
		}
		sum += lag
	}
	t.Logf("reuse latency error over %d streams: mean %v, worst %v (bound %v)",
		n, sum/time.Duration(n), worst, cfg.DeltaT+cfg.DeltaTReuse)
}

func TestWheelHorizonCapReEnrolls(t *testing.T) {
	// A tiny wheel forces penalties whose reuse instant lies beyond the
	// horizon to park in the farthest list and re-enroll when swept.
	params := Cisco()
	cfg := WheelConfig{DeltaT: time.Second, DeltaTReuse: 5 * time.Second, MaxLists: 3}
	w := NewWheel(params, cfg)
	s := w.NewState(9)
	ex := NewState(params)
	for k := 0; k < 3; k++ {
		at := sec(float64(k))
		s.Update(at, KindWithdrawal, true)
		ex.Update(at, KindWithdrawal, true)
	}
	if !s.Suppressed() {
		t.Fatal("setup: not suppressed")
	}
	exact := exactReuseInstant(ex, sec(2))
	var lifted []uint64
	now := sec(2)
	for s.Suppressed() {
		now = w.NextSweepAt(now)
		sweepTo(w, now, &lifted)
		if now > exact+time.Hour {
			t.Fatal("capped wheel never lifted")
		}
	}
	if now < exact-cfg.DeltaT-time.Millisecond || now > exact+cfg.DeltaT+cfg.DeltaTReuse {
		t.Fatalf("capped wheel lifted at %v, exact %v", now, exact)
	}
}

// TestWheelSteadyStateDoesNotAllocate is the damping-package leg of the CI
// alloc gate: once lists and states are warm, a full flap/suppress/sweep/
// reuse cycle must not allocate.
func TestWheelSteadyStateDoesNotAllocate(t *testing.T) {
	params := Cisco()
	// A small ring lets one warm-up cycle touch (and size) every reuse
	// list; with the default 722-list ring each cycle would enroll into
	// cold buckets and the append growth would read as steady-state
	// allocation.
	cfg := WheelConfig{DeltaT: time.Second, DeltaTReuse: 5 * time.Second, MaxLists: 8}
	w := NewWheel(params, cfg)
	const n = 512
	states := make([]*WheelState, n)
	for i := range states {
		states[i] = w.NewState(uint64(i))
	}
	now := sec(0)
	cycle := func() {
		for k := 0; k < 3; k++ {
			at := now + time.Duration(k)*sec(2)
			for _, s := range states {
				s.Update(at, KindWithdrawal, true)
			}
		}
		now += sec(6)
		for w.Enrolled() > 0 {
			now = w.NextSweepAt(now)
			w.Sweep(now, func(uint64) {})
		}
		now += sec(10)
	}
	cycle() // warm list capacities
	if allocs := testing.AllocsPerRun(5, cycle); allocs != 0 {
		t.Fatalf("steady-state wheel cycle allocated %.1f times per run, want 0", allocs)
	}
}
