package damping

import (
	"fmt"
	"time"
)

// Event describes the outcome of feeding one update into a State.
type Event struct {
	// Kind is the update classification that was applied.
	Kind Kind
	// Increment is the penalty that was added (0 for initial/duplicate, or
	// when a penalty filter such as RCN vetoed the charge).
	Increment float64
	// Penalty is the post-update penalty value.
	Penalty float64
	// Suppressed reports whether the route is suppressed after the update.
	Suppressed bool
	// BecameSuppressed reports whether this very update pushed the penalty
	// over the cut-off threshold.
	BecameSuppressed bool
	// ReuseIn is how long from now until the penalty decays to the reuse
	// threshold (0 when not suppressed).
	ReuseIn time.Duration
}

// Merit is the damping record of one (peer, prefix) pair: the figure of
// merit (penalty), the instant it was last materialized, and the suppression
// flag. The parameters that govern it are router configuration, not route
// state, so every method that needs them takes them: a router keeps one
// Rules and one Merit per route. Merit holds no pointer, and the zero Merit
// is a fresh record (zero penalty, not suppressed). The *Rules passed in
// must not be nil. Merit is not safe for concurrent use.
type Merit struct {
	penalty    float64
	at         time.Duration // instant penalty was last materialized
	suppressed bool
}

// Suppressed reports whether the route is currently suppressed.
func (m *Merit) Suppressed() bool { return m.suppressed }

// Penalty returns the decayed penalty value at the given instant. now must
// not be earlier than the last update fed into the record; earlier values are
// clamped (the penalty is simply not decayed).
func (m *Merit) Penalty(r *Rules, now time.Duration) float64 {
	return decay(r.lambda, m.penalty, now-m.at)
}

// materialize folds decay up to now into the stored penalty.
func (m *Merit) materialize(r *Rules, now time.Duration) {
	if now > m.at {
		m.penalty = decay(r.lambda, m.penalty, now-m.at)
		m.at = now
	}
}

// Update feeds one classified update into the record at virtual time now. It
// returns the penalty it added and whether this very update pushed the
// penalty over the cut-off threshold; Penalty, Suppressed and ReuseIn at now
// read the rest of the outcome. The increment may be vetoed by passing
// charge=false (used by RCN-enhanced damping when the update's root cause has
// been seen before — the update still flows to the routing decision, it just
// does not add penalty; Section 6.2 of the paper).
func (m *Merit) Update(r *Rules, now time.Duration, kind Kind, charge bool) (inc float64, became bool) {
	m.materialize(r, now)
	if charge {
		inc = r.Increment(kind)
	}
	m.penalty += inc
	if m.penalty > r.maxPenalty {
		m.penalty = r.maxPenalty
	}
	if !m.suppressed && m.penalty > r.CutoffThreshold {
		m.suppressed = true
		became = true
	}
	return inc, became
}

// ReuseIn returns how long from now until the penalty decays to the reuse
// threshold. Zero when the penalty is already at or below it.
func (m *Merit) ReuseIn(r *Rules, now time.Duration) time.Duration {
	return r.reuseDelay(r.lambda, m.Penalty(r, now))
}

// TryReuse attempts to lift suppression at virtual time now. It succeeds
// (and reports true) when the decayed penalty has reached the reuse
// threshold. When it reports false the route stays suppressed — the caller's
// reuse timer fired stale (e.g. the penalty was re-charged after the timer
// was set) and should be re-armed for ReuseIn(now).
func (m *Merit) TryReuse(r *Rules, now time.Duration) bool {
	if !m.suppressed {
		return true
	}
	m.materialize(r, now)
	// Tolerate the sub-nanosecond rounding of ReuseDelay: a timer armed for
	// exactly the reuse instant must succeed.
	if m.penalty <= r.ReuseThreshold*(1+1e-9) {
		m.suppressed = false
		return true
	}
	return false
}

// Reset clears penalty and suppression. Real routers do this when a peer
// session is cleared; experiments use it between scenario phases.
func (m *Merit) Reset() { *m = Merit{} }

// State is a Merit bundled with the Params that govern it, for callers that
// damp one stream on its own (the analytic model, the invariant checker's
// oracle). Create with NewState. State is not safe for concurrent use.
type State struct {
	rules Rules
	m     Merit
}

// NewState returns a fresh state (zero penalty, not suppressed) governed by
// params. Params are copied; changing the caller's copy later has no effect.
func NewState(params Params) *State {
	return &State{rules: *NewRules(params)}
}

// Params returns the configuration the state was built with.
func (s *State) Params() Params { return s.rules.Params }

// Suppressed reports whether the route is currently suppressed.
func (s *State) Suppressed() bool { return s.m.Suppressed() }

// Penalty returns the decayed penalty value at the given instant; see
// Merit.Penalty.
func (s *State) Penalty(now time.Duration) float64 { return s.m.Penalty(&s.rules, now) }

// Update feeds one classified update into the state and returns the
// resulting Event; see Merit.Update.
func (s *State) Update(now time.Duration, kind Kind, charge bool) Event {
	inc, became := s.m.Update(&s.rules, now, kind, charge)
	ev := Event{
		Kind:             kind,
		Increment:        inc,
		Penalty:          s.m.penalty,
		Suppressed:       s.m.suppressed,
		BecameSuppressed: became,
	}
	if s.m.suppressed {
		ev.ReuseIn = s.rules.reuseDelay(s.rules.lambda, s.m.penalty)
	}
	return ev
}

// ReuseIn returns how long from now until the penalty decays to the reuse
// threshold; see Merit.ReuseIn.
func (s *State) ReuseIn(now time.Duration) time.Duration { return s.m.ReuseIn(&s.rules, now) }

// TryReuse attempts to lift suppression at virtual time now; see
// Merit.TryReuse.
func (s *State) TryReuse(now time.Duration) bool { return s.m.TryReuse(&s.rules, now) }

// Clone returns an independent copy of the state: same params, penalty,
// timestamp and suppression flag, sharing nothing with the original.
func (s *State) Clone() *State {
	c := *s
	return &c
}

// String summarizes the state for diagnostics.
func (s *State) String() string {
	return fmt.Sprintf("damping.State{penalty: %.1f @ %v, suppressed: %t}",
		s.m.penalty, s.m.at, s.m.suppressed)
}
