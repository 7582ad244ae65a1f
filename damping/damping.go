// Package damping implements BGP Route Flap Damping as specified in RFC 2439
// and studied in "Timer Interaction in Route Flap Damping" (Zhang, Pei,
// Massey, Zhang — ICDCS 2005).
//
// A router keeps one Merit record per (peer, destination prefix) pair, all
// governed by the router's one Params; State bundles a Merit with its Params
// for a stream damped on its own. Every update received for a pair adds a
// penalty increment that depends on the kind of update (withdrawal,
// re-announcement, attribute change); between updates the penalty decays
// exponentially with a configured half-life. When the penalty
// exceeds the cut-off threshold the route is suppressed: it is excluded from
// best-path selection until the penalty decays below the reuse threshold,
// at which point a reuse timer fires and the route becomes usable again.
//
// The package is self-contained and deliberately independent of the simulator
// (time is passed in as time.Duration offsets), so it is equally usable
// inside a real routing daemon. Classification of updates into Kinds is the
// caller's job — it requires RIB state the damping engine should not own —
// via Classify or directly.
//
// The ICDCS 2005 paper's findings hinge on exactly this machinery: because
// the penalty charges on *every* received update regardless of root cause,
// path-exploration updates cause false suppression, and updates triggered by
// route reuse at other routers re-charge penalties ("secondary charging").
// See the rcn package and bgp.Config.EnableRCN for the paper's fix.
package damping

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Kind classifies a received update relative to the current RIB-IN entry for
// the same (peer, prefix). The zero value is invalid so that forgotten
// classification is caught.
type Kind int

const (
	// KindInitial is the first announcement ever received for the pair, or
	// an announcement for which no flap history exists. No penalty.
	KindInitial Kind = iota + 1
	// KindWithdrawal is a withdrawal of a currently-present route.
	KindWithdrawal
	// KindReannouncement is an announcement for a route that was previously
	// withdrawn.
	KindReannouncement
	// KindAttrChange is an announcement that changes the attributes (e.g.
	// the AS path) of a route that is currently present.
	KindAttrChange
	// KindDuplicate is an announcement identical to the current route, or a
	// withdrawal for an already-withdrawn route. No penalty.
	KindDuplicate
)

// String returns the RFC 2439 style name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInitial:
		return "initial"
	case KindWithdrawal:
		return "withdrawal"
	case KindReannouncement:
		return "re-announcement"
	case KindAttrChange:
		return "attribute-change"
	case KindDuplicate:
		return "duplicate"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Params holds a damping configuration (Table 1 of the paper).
type Params struct {
	// WithdrawalPenalty is added when a present route is withdrawn (P_W).
	WithdrawalPenalty float64
	// ReannouncementPenalty is added when a withdrawn route is announced
	// again (P_A). Cisco uses 0, Juniper 1000.
	ReannouncementPenalty float64
	// AttrChangePenalty is added when an announcement changes the attributes
	// of a present route.
	AttrChangePenalty float64
	// CutoffThreshold (P_cut): a route is suppressed when its penalty
	// exceeds this value.
	CutoffThreshold float64
	// ReuseThreshold (P_reuse): a suppressed route is reused when its
	// penalty decays below this value.
	ReuseThreshold float64
	// HalfLife (H) of the exponential penalty decay.
	HalfLife time.Duration
	// MaxHoldDown bounds how long a route may stay suppressed; it implies a
	// ceiling on the penalty value (see MaxPenalty).
	MaxHoldDown time.Duration
}

// Cisco returns the Cisco default parameters from Table 1 of the paper.
// All simulation results in the paper use these values.
func Cisco() Params {
	return Params{
		WithdrawalPenalty:     1000,
		ReannouncementPenalty: 0,
		AttrChangePenalty:     500,
		CutoffThreshold:       2000,
		ReuseThreshold:        750,
		HalfLife:              15 * time.Minute,
		MaxHoldDown:           60 * time.Minute,
	}
}

// Juniper returns the Juniper default parameters from Table 1 of the paper.
func Juniper() Params {
	return Params{
		WithdrawalPenalty:     1000,
		ReannouncementPenalty: 1000,
		AttrChangePenalty:     500,
		CutoffThreshold:       3000,
		ReuseThreshold:        750,
		HalfLife:              15 * time.Minute,
		MaxHoldDown:           60 * time.Minute,
	}
}

// RIPE229 returns the coordinated damping parameters recommended by the
// RIPE Routing Working Group (Panigl, Schmitz, Smith, Vistoli — RIPE 229,
// cited by the paper as the operator response to observed false
// suppression): Cisco-style increments with the higher 3000 cut-off, so
// that a lone flap amplified by path exploration is less likely to suppress.
func RIPE229() Params {
	return Params{
		WithdrawalPenalty:     1000,
		ReannouncementPenalty: 0,
		AttrChangePenalty:     500,
		CutoffThreshold:       3000,
		ReuseThreshold:        750,
		HalfLife:              15 * time.Minute,
		MaxHoldDown:           60 * time.Minute,
	}
}

// ParsePreset resolves a parameter preset by the name every front end uses:
// cisco and juniper (Table 1), ripe229, and none, off or the empty string for
// no damping at all, which is the nil result.
func ParsePreset(name string) (*Params, error) {
	var p Params
	switch name {
	case "", "none", "off":
		return nil, nil
	case "cisco":
		p = Cisco()
	case "juniper":
		p = Juniper()
	case "ripe229":
		p = RIPE229()
	default:
		return nil, fmt.Errorf("damping: unknown damping preset %q (want none, off, cisco, juniper or ripe229)", name)
	}
	return &p, nil
}

// errInvalidParams sentinels parameter validation failures.
var errInvalidParams = errors.New("damping: invalid parameters")

// Validate checks internal consistency of the parameters.
func (p Params) Validate() error {
	switch {
	case p.WithdrawalPenalty < 0 || p.ReannouncementPenalty < 0 || p.AttrChangePenalty < 0:
		return fmt.Errorf("%w: negative penalty increment", errInvalidParams)
	case p.ReuseThreshold <= 0:
		return fmt.Errorf("%w: reuse threshold %v must be positive", errInvalidParams, p.ReuseThreshold)
	case p.CutoffThreshold <= p.ReuseThreshold:
		return fmt.Errorf("%w: cutoff %v must exceed reuse threshold %v",
			errInvalidParams, p.CutoffThreshold, p.ReuseThreshold)
	case p.HalfLife <= 0:
		return fmt.Errorf("%w: half-life %v must be positive", errInvalidParams, p.HalfLife)
	case p.MaxHoldDown <= 0:
		return fmt.Errorf("%w: max hold-down %v must be positive", errInvalidParams, p.MaxHoldDown)
	}
	return nil
}

// Lambda returns the decay rate λ such that p(t) = p(t0)·e^(−λ(t−t0)),
// with λ = ln 2 / H (Equation 1 of the paper). The unit is 1/second.
func (p Params) Lambda() float64 {
	return math.Ln2 / p.HalfLife.Seconds()
}

// MaxPenalty returns the ceiling the penalty is clamped to:
// Preuse · 2^(MaxHoldDown/HalfLife). With Cisco defaults this is 12000 — the
// value the paper notes would be needed for a one-hour suppression
// (Section 5.2).
func (p Params) MaxPenalty() float64 {
	return p.ReuseThreshold * math.Exp2(float64(p.MaxHoldDown)/float64(p.HalfLife))
}

// Increment returns the penalty added for an update of the given kind.
func (p Params) Increment(k Kind) float64 {
	switch k {
	case KindWithdrawal:
		return p.WithdrawalPenalty
	case KindReannouncement:
		return p.ReannouncementPenalty
	case KindAttrChange:
		return p.AttrChangePenalty
	default: // KindInitial, KindDuplicate and invalid kinds add nothing.
		return 0
	}
}

// Decay returns the penalty value after elapsed time, given a starting value.
// Negative elapsed durations are treated as zero (time cannot run backwards
// for a damping state; clamping keeps the engine robust against clock skew
// when used outside the simulator).
func (p Params) Decay(penalty float64, elapsed time.Duration) float64 {
	return decay(p.Lambda(), penalty, elapsed)
}

// ReuseDelay returns how long it takes a penalty to decay to the reuse
// threshold: r = (1/λ)·ln(p/Preuse) (Section 3). It returns 0 if the penalty
// is already at or below the threshold, and caps the result at MaxHoldDown.
func (p Params) ReuseDelay(penalty float64) time.Duration {
	return p.reuseDelay(p.Lambda(), penalty)
}

// decay is Decay at decay rate lambda.
func decay(lambda, penalty float64, elapsed time.Duration) float64 {
	if elapsed <= 0 || penalty <= 0 {
		if penalty < 0 {
			return 0
		}
		return penalty
	}
	return penalty * math.Exp(-lambda*elapsed.Seconds())
}

// reuseDelay is ReuseDelay at decay rate lambda.
func (p *Params) reuseDelay(lambda, penalty float64) time.Duration {
	if penalty <= p.ReuseThreshold {
		return 0
	}
	seconds := math.Log(penalty/p.ReuseThreshold) / lambda
	d := time.Duration(seconds * float64(time.Second))
	if d > p.MaxHoldDown {
		return p.MaxHoldDown
	}
	return d
}

// Rules are a Params with the two constants they imply computed once: the
// decay rate λ (Params.Lambda) and the penalty ceiling (Params.MaxPenalty).
// Every Merit method takes Rules, so a router that keeps one Rules for all
// its records pays for neither on an update. The results are bit-identical
// to computing them from the Params each time. Rules must not be modified
// after NewRules.
type Rules struct {
	Params
	lambda, maxPenalty float64
}

// NewRules derives the Rules for p.
func NewRules(p Params) *Rules {
	return &Rules{Params: p, lambda: p.Lambda(), maxPenalty: p.MaxPenalty()}
}

// Classify derives the update Kind from RIB-IN facts: whether the update is a
// withdrawal, whether a route from this peer is currently present, whether
// one was ever present, and whether the new announcement differs from the
// present one. It encodes the table implicit in RFC 2439 §4.4.
func Classify(isWithdrawal, routePresent, everPresent, attrsDiffer bool) Kind {
	if isWithdrawal {
		if routePresent {
			return KindWithdrawal
		}
		return KindDuplicate
	}
	if routePresent {
		if attrsDiffer {
			return KindAttrChange
		}
		return KindDuplicate
	}
	if everPresent {
		return KindReannouncement
	}
	return KindInitial
}
