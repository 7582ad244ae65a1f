// Package analytic implements the paper's Section 3 model of damping's
// *intended* behaviour: the closed-form penalty accumulation at the router
// adjacent to the flapping link (ispAS), the reuse delay r = (1/λ)·ln(p/P_reuse),
// and the intended convergence time
//
//	t = r + t_up
//
// where t_up is ordinary BGP up-convergence time. The Fig 8/13 "calculation"
// curves and the experiment package's intended-vs-actual comparisons are
// computed here.
//
// The model deliberately reuses the damping package so the analytic
// prediction and the simulated routers share one penalty implementation —
// any divergence between intended and actual behaviour is then attributable
// to network effects (path exploration, timer interaction), exactly as in
// the paper. Predict reads damping.Replay's timeline, reuse included;
// PenaltyTrace and OnsetPenalties drive a damping.State directly and model
// no reuse, which the Fig 3 sawtooth and the cut-off tuning need.
package analytic

import (
	"fmt"
	"time"

	"rfd/damping"
)

// PulseTrain builds the paper's workload (Section 5.1): n pulses at the
// given flapping interval. A pulse is a withdrawal followed by an
// announcement one interval later; consecutive pulses are separated by the
// same interval, so events fall at 0, w, 2w, … and the final event — always
// an announcement — falls at (2n−1)·w. n <= 0 yields nil.
func PulseTrain(n int, interval time.Duration) []damping.TimedUpdate {
	if n <= 0 {
		return nil
	}
	events := make([]damping.TimedUpdate, 0, 2*n)
	for i := 0; i < n; i++ {
		events = append(events,
			damping.TimedUpdate{At: time.Duration(2*i) * interval, Kind: damping.KindWithdrawal},
			damping.TimedUpdate{At: time.Duration(2*i+1) * interval, Kind: damping.KindReannouncement},
		)
	}
	return events
}

// Prediction is the intended-behaviour outcome for one flap pattern.
type Prediction struct {
	// Suppressed reports whether the origin link's route is suppressed at
	// the end of the flap train.
	Suppressed bool
	// SuppressedAtEvent is the 1-based index of the event that triggered
	// suppression (0 when never suppressed).
	SuppressedAtEvent int
	// FinalPenalty is the penalty right after the last event.
	FinalPenalty float64
	// ReuseDelay is r: how long after the last event the route is reused
	// (0 when not suppressed).
	ReuseDelay time.Duration
	// Convergence is the intended convergence time t = r + t_up measured
	// from the origin's final announcement.
	Convergence time.Duration
}

// Predict runs the single-router damping model over the updates the origin's
// neighbor (ispAS) receives, at times relative to the start of flapping: it
// is damping.Replay's timeline, reuse timers firing between updates exactly
// as a router's would. tup is the network's ordinary up-convergence time
// (measured or assumed); when the flaps never trigger suppression the
// intended convergence time is simply tup.
func Predict(params damping.Params, events []damping.TimedUpdate, tup time.Duration) (Prediction, error) {
	rep, err := damping.Replay(params, events)
	if err != nil {
		return Prediction{}, err
	}
	pred := Prediction{}
	for i, pt := range rep.Points {
		if pt.BecameSuppressed {
			pred.SuppressedAtEvent = i + 1
			break
		}
	}
	if n := len(rep.Points); n > 0 {
		pred.FinalPenalty, pred.Suppressed = rep.Points[n-1].Penalty, rep.Points[n-1].Suppressed
	}
	switch {
	case len(events) == 0:
		// No flap, no convergence event.
		pred.Convergence = 0
	case pred.Suppressed:
		pred.ReuseDelay = params.ReuseDelay(pred.FinalPenalty)
		pred.Convergence = pred.ReuseDelay + tup
	default:
		pred.Convergence = tup
	}
	return pred, nil
}

// PredictPulses is Predict specialized to the paper's pulse workload: the
// Fig 8 "calculation" curve is PredictPulses(cisco, n, 60s, tup).Convergence
// for n = 0..10.
func PredictPulses(params damping.Params, pulses int, interval, tup time.Duration) (Prediction, error) {
	return Predict(params, PulseTrain(pulses, interval), tup)
}

// SuppressionOnset returns the pulse number (1-based) whose events first
// suppress the origin link under the given parameters and interval, or 0 if
// maxPulses pulses never suppress it. The paper's setup (Cisco, 60 s) yields
// 3; Juniper yields 2.
func SuppressionOnset(params damping.Params, interval time.Duration, maxPulses int) (int, error) {
	pred, err := PredictPulses(params, maxPulses, interval, 0)
	if err != nil {
		return 0, err
	}
	if pred.SuppressedAtEvent == 0 {
		return 0, nil
	}
	// Event indices 1,2 belong to pulse 1; 3,4 to pulse 2; …
	return (pred.SuppressedAtEvent + 1) / 2, nil
}

// PenaltyTracePoint is one (time, penalty) sample of the analytic trace.
type PenaltyTracePoint struct {
	At      time.Duration
	Penalty float64
}

// PenaltyTrace samples the penalty curve produced by the event sequence on a
// regular grid of the given spacing, from t=0 through horizon. It also
// injects a sample immediately after each event so the sawtooth's vertical
// jumps are visible (this is how Fig 3 of the paper is rendered).
func PenaltyTrace(params damping.Params, events []damping.TimedUpdate, horizon, spacing time.Duration) ([]PenaltyTracePoint, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if spacing <= 0 {
		return nil, fmt.Errorf("analytic: non-positive spacing %v", spacing)
	}
	state := damping.NewState(params)
	var out []PenaltyTracePoint
	next := 0
	for t := time.Duration(0); t <= horizon; t += spacing {
		for next < len(events) && events[next].At <= t {
			ev := state.Update(events[next].At, events[next].Kind, true)
			out = append(out, PenaltyTracePoint{At: events[next].At, Penalty: ev.Penalty})
			next++
		}
		out = append(out, PenaltyTracePoint{At: t, Penalty: state.Penalty(t)})
	}
	return out, nil
}
