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
// Params and one Merit per route. Merit holds no pointer, and the zero Merit
// is a fresh record (zero penalty, not suppressed). The *Params passed in
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
func (m *Merit) Penalty(p *Params, now time.Duration) float64 {
	return p.Decay(m.penalty, now-m.at)
}

// materialize folds decay up to now into the stored penalty.
func (m *Merit) materialize(p *Params, now time.Duration) {
	if now > m.at {
		m.penalty = p.Decay(m.penalty, now-m.at)
		m.at = now
	}
}

// Update feeds one classified update into the record at virtual time now and
// returns the resulting Event. The increment may be vetoed by passing
// charge=false (used by RCN-enhanced damping when the update's root cause has
// been seen before — the update still flows to the routing decision, it just
// does not add penalty; Section 6.2 of the paper).
func (m *Merit) Update(p *Params, now time.Duration, kind Kind, charge bool) Event {
	m.materialize(p, now)
	inc := 0.0
	if charge {
		inc = p.Increment(kind)
	}
	m.penalty += inc
	if max := p.MaxPenalty(); m.penalty > max {
		m.penalty = max
	}
	became := false
	if !m.suppressed && m.penalty > p.CutoffThreshold {
		m.suppressed = true
		became = true
	}
	ev := Event{
		Kind:             kind,
		Increment:        inc,
		Penalty:          m.penalty,
		Suppressed:       m.suppressed,
		BecameSuppressed: became,
	}
	if m.suppressed {
		ev.ReuseIn = p.ReuseDelay(m.penalty)
	}
	return ev
}

// ReuseIn returns how long from now until the penalty decays to the reuse
// threshold. Zero when the penalty is already at or below it.
func (m *Merit) ReuseIn(p *Params, now time.Duration) time.Duration {
	return p.ReuseDelay(m.Penalty(p, now))
}

// TryReuse attempts to lift suppression at virtual time now. It succeeds
// (and reports true) when the decayed penalty has reached the reuse
// threshold. When it reports false the route stays suppressed — the caller's
// reuse timer fired stale (e.g. the penalty was re-charged after the timer
// was set) and should be re-armed for ReuseIn(now).
func (m *Merit) TryReuse(p *Params, now time.Duration) bool {
	if !m.suppressed {
		return true
	}
	m.materialize(p, now)
	// Tolerate the sub-nanosecond rounding of ReuseDelay: a timer armed for
	// exactly the reuse instant must succeed.
	if m.penalty <= p.ReuseThreshold*(1+1e-9) {
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
	params Params
	m      Merit
}

// NewState returns a fresh state (zero penalty, not suppressed) governed by
// params. Params are copied; changing the caller's copy later has no effect.
func NewState(params Params) *State {
	return &State{params: params}
}

// Params returns the configuration the state was built with.
func (s *State) Params() Params { return s.params }

// Suppressed reports whether the route is currently suppressed.
func (s *State) Suppressed() bool { return s.m.Suppressed() }

// Penalty returns the decayed penalty value at the given instant; see
// Merit.Penalty.
func (s *State) Penalty(now time.Duration) float64 { return s.m.Penalty(&s.params, now) }

// Update feeds one classified update into the state; see Merit.Update.
func (s *State) Update(now time.Duration, kind Kind, charge bool) Event {
	return s.m.Update(&s.params, now, kind, charge)
}

// ReuseIn returns how long from now until the penalty decays to the reuse
// threshold; see Merit.ReuseIn.
func (s *State) ReuseIn(now time.Duration) time.Duration { return s.m.ReuseIn(&s.params, now) }

// TryReuse attempts to lift suppression at virtual time now; see
// Merit.TryReuse.
func (s *State) TryReuse(now time.Duration) bool { return s.m.TryReuse(&s.params, now) }

// Clone returns an independent copy of the state: same params, penalty,
// timestamp and suppression flag, sharing nothing with the original.
func (s *State) Clone() *State {
	c := *s
	return &c
}

// Reset clears penalty and suppression; see Merit.Reset.
func (s *State) Reset() { s.m.Reset() }

// String summarizes the state for diagnostics.
func (s *State) String() string {
	return fmt.Sprintf("damping.State{penalty: %.1f @ %v, suppressed: %t}",
		s.m.penalty, s.m.at, s.m.suppressed)
}
