package damping

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// logWord renders a Kind in the word set ParseUpdateLog accepts literally.
// Kind.String() is close but not identical: KindAttrChange prints
// "attribute-change" while the parser wants "attr-change".
func logWord(k Kind) string {
	if k == KindAttrChange {
		return "attr-change"
	}
	return k.String()
}

// FuzzParseUpdateLog checks that every accepted update log survives a
// render/reparse round trip: resolved kinds re-enter the stateful classifier
// and come out identical, and times re-read to within Duration<->decimal
// conversion noise. Everything else must fail gracefully (error, not panic).
func FuzzParseUpdateLog(f *testing.F) {
	f.Add("0 a\n60 w\n120 a\n180 w\n")
	f.Add("10.5 withdrawal\n20 re-announcement\n30 attr-change\n40 duplicate\n0 initial\n")
	f.Add("# comment\n\n1e3 announce\n2.5e2 withdraw\n")
	f.Fuzz(func(t *testing.T, input string) {
		ups, err := ParseUpdateLog(strings.NewReader(input))
		if err != nil {
			return
		}
		var sb strings.Builder
		for _, u := range ups {
			if u.At > 1<<51 {
				// Beyond ~26 virtual days of nanoseconds the decimal-seconds
				// representation can perturb times enough to reorder the
				// (sorted) log; the round trip is only meaningful below.
				t.Skip("time too large for exact decimal round trip")
			}
			// Exact decimal rendering of the integer-nanosecond Duration.
			fmt.Fprintf(&sb, "%d.%09d %s\n", u.At/time.Second, u.At%time.Second, logWord(u.Kind))
		}
		ups2, err := ParseUpdateLog(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("rendered log rejected: %v\nrendered:\n%s", err, sb.String())
		}
		if len(ups2) != len(ups) {
			t.Fatalf("round trip changed the length: got %d, want %d", len(ups2), len(ups))
		}
		for i := range ups {
			if ups2[i].Kind != ups[i].Kind {
				t.Fatalf("update %d kind changed: got %v, want %v (rendered:\n%s)",
					i, ups2[i].Kind, ups[i].Kind, sb.String())
			}
			if d := ups2[i].At - ups[i].At; d < -2 || d > 2 {
				t.Fatalf("update %d time drifted %v: got %v, want %v", i, d, ups2[i].At, ups[i].At)
			}
		}
	})
}

// FuzzWheelMatchesExact is the differential harness for the timer-wheel
// backend: it decodes the fuzz input into an update schedule, drives an
// exact State and a WheelState through it in lockstep (sweeping the wheel
// at every DeltaTReuse boundary, as its owning router would), and asserts the
// wheel's documented quantization bounds:
//
//   - penalty stays within [exact/e^(lambda*DeltaT), exact*e^(lambda*DeltaT)]
//     at every update instant;
//   - suppression onsets diverge only while the exact penalty sits within
//     one decay tick of the cutoff threshold;
//   - the wheel lifts reuse within [exact - DeltaT, exact + DeltaT +
//     DeltaTReuse] of the exact reuse instant.
//
// After the first reuse lift (or a legitimate borderline onset divergence)
// the two suppression histories genuinely fork — a re-charge in the lag
// window merges suppression periods on one side only — so from there the
// harness keeps asserting the penalty band, which holds unconditionally,
// and stops asserting flag parity.
func FuzzWheelMatchesExact(f *testing.F) {
	f.Add([]byte{0, 0, 4, 0, 0, 4, 1, 0, 4, 2, 0, 4, 0})                  // rapid flaps, Cisco, default wheel
	f.Add([]byte{3, 0, 2, 0, 0, 2, 1, 0, 2, 0, 255, 255, 3, 0, 2, 0})     // Juniper, tiny ring, long gap
	f.Add([]byte{4, 0, 100, 0, 0, 100, 1, 0, 100, 2, 40, 0, 3, 0, 80, 0}) // coarse ticks, mixed kinds
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip("input too short for a header and one step")
		}
		params := Cisco()
		if data[0]&1 != 0 {
			params = Juniper()
		}
		var cfg WheelConfig
		switch (data[0] >> 1) & 3 {
		case 0:
			cfg = DefaultWheelConfig()
		case 1:
			cfg = WheelConfig{DeltaT: time.Second, DeltaTReuse: 5 * time.Second, MaxLists: 8}
		case 2:
			cfg = WheelConfig{DeltaT: 2 * time.Second, DeltaTReuse: 10 * time.Second, MaxLists: 64}
		default:
			cfg = WheelConfig{DeltaT: 500 * time.Millisecond, DeltaTReuse: 2 * time.Second, MaxLists: 256}
		}
		factor := math.Exp(params.Lambda() * cfg.DeltaT.Seconds())
		kinds := []Kind{KindWithdrawal, KindReannouncement, KindAttrChange, KindDuplicate}

		w := NewWheel(params, cfg)
		ws := w.NewState(1)
		ex := NewState(params)
		now := time.Duration(0)
		flagsSynced := true // suppression histories still comparable
		var exactReuse time.Duration
		liftBound := func(sw time.Duration) {
			if sw < exactReuse-cfg.DeltaT-time.Millisecond ||
				sw > exactReuse+cfg.DeltaT+cfg.DeltaTReuse+time.Millisecond {
				t.Fatalf("wheel lifted at %v, exact reuse instant %v (allowed [-%v, +%v])",
					sw, exactReuse, cfg.DeltaT, cfg.DeltaT+cfg.DeltaTReuse)
			}
		}

		steps := 0
		for i := 1; i+2 < len(data) && steps < 256; i, steps = i+3, steps+1 {
			dt := time.Duration(uint32(data[i])<<8|uint32(data[i+1]))*8*time.Millisecond + time.Millisecond
			next := now + dt
			// Sweep every boundary in (now, next], watching for lifts.
			for w.Enrolled() > 0 {
				sw := w.NextSweepAt(now)
				if sw > next {
					break
				}
				lifted := false
				w.Sweep(sw, func(uint64) { lifted = true })
				now = sw
				if lifted && flagsSynced {
					liftBound(sw)
					flagsSynced = false
				}
			}
			now = next
			kind := kinds[int(data[i+2])%len(kinds)]
			we := ws.Update(now, kind, true)
			ee := ex.Update(now, kind, true)
			if we.Penalty < ee.Penalty/factor*(1-1e-9)-1e-9 ||
				we.Penalty > ee.Penalty*factor*(1+1e-9)+1e-9 {
				t.Fatalf("step %d at %v: wheel penalty %.9g outside [%.9g, %.9g]",
					steps, now, we.Penalty, ee.Penalty/factor, ee.Penalty*factor)
			}
			if flagsSynced {
				if ws.Suppressed() != ex.Suppressed() {
					lo := params.CutoffThreshold / factor * (1 - 1e-9)
					hi := params.CutoffThreshold * factor * (1 + 1e-9)
					if ee.Penalty < lo || ee.Penalty > hi {
						t.Fatalf("step %d at %v: suppression diverged (wheel=%t exact=%t) with exact penalty %.9g outside borderline band [%.9g, %.9g]",
							steps, now, ws.Suppressed(), ex.Suppressed(), ee.Penalty, lo, hi)
					}
					flagsSynced = false
				} else if ex.Suppressed() {
					exactReuse = now + ex.ReuseIn(now)
				}
			}
		}
		// Drain: a stream suppressed on both sides must lift within the bound.
		if flagsSynced && ws.Suppressed() {
			for ws.Suppressed() {
				now = w.NextSweepAt(now)
				w.Sweep(now, func(uint64) {})
				if now > exactReuse+time.Hour {
					t.Fatal("wheel never lifted a suppressed stream")
				}
			}
			liftBound(now)
		}
	})
}
