// Package faults is the deterministic fault-injection subsystem for the
// route-flap-damping simulator. It answers the robustness question the
// paper's idealized setup leaves open — do the timer interactions survive
// realistic impairments? — by perturbing a bgp.Network in three ways:
//
//   - Impairments: per-direction message loss, delay jitter, and burst-loss
//     windows, driven by a seeded RNG so runs stay exactly reproducible
//     (bgp.LinkImpairment is consulted in deterministic send order).
//   - A Plan of typed, scheduled fault events: link flaps, session resets,
//     router crash/restart, and loss windows, replacing ad-hoc SetLinkState
//     scripting in experiments and cmd/rfdsim.
//   - A convergence watchdog (Watch) that observes the kernel's drain,
//     runs consistency checks at quiescent instants only, and reports
//     divergence or livelock (the kernel's event limit) with a
//     bounded-event diagnosis instead of a bare error.
//
// Everything here is deterministic: the same seed and the same Plan yield
// byte-identical event traces, including runs with loss, session resets and
// router crashes.
package faults

import (
	"fmt"
	"slices"
	"time"

	"rfd/bgp"
	"rfd/sim"
	"rfd/topology"
)

// Wildcard, as an endpoint of a LossWindow event, matches every router.
const Wildcard = bgp.RouterID(-1)

// Kind enumerates fault event types.
type Kind int

const (
	// KindLinkDown fails the A-B link at At (messages in flight are lost,
	// both ends withdraw, charging damping).
	KindLinkDown Kind = iota + 1
	// KindLinkUp restores the A-B link at At (both ends re-advertise).
	KindLinkUp
	// KindLinkFlap fails the A-B link at At and restores it Duration later.
	KindLinkFlap
	// KindSessionReset drops and immediately re-establishes the A-B session
	// at At: in-flight messages are lost, both ends flush the session RIBs
	// (charging damping like real session churn) and re-advertise.
	KindSessionReset
	// KindRouterCrash crashes Router at At; if Duration > 0 it restarts
	// Duration later, otherwise it stays down.
	KindRouterCrash
	// KindRouterRestart restarts a crashed Router at At.
	KindRouterRestart
	// KindLossWindow forces a message-loss rate of Rate on the A-B link
	// (both directions), or network-wide when both endpoints are Wildcard,
	// during [At, At+Duration). Requires an Impairments model at Apply.
	KindLossWindow
)

// String names the kind (also the verb of the Plan text format).
func (k Kind) String() string {
	switch k {
	case KindLinkDown:
		return "down"
	case KindLinkUp:
		return "up"
	case KindLinkFlap:
		return "flap"
	case KindSessionReset:
		return "reset"
	case KindRouterCrash:
		return "crash"
	case KindRouterRestart:
		return "restart"
	case KindLossWindow:
		return "loss"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one scheduled fault. Construct with the typed helpers (FlapLink,
// ResetSession, CrashRouter, …); the zero value is invalid.
type Event struct {
	// At is when the fault fires, relative to the plan epoch (the instant
	// Apply anchors the plan at — experiments use the end of warm-up).
	At time.Duration
	// Kind selects the fault type.
	Kind Kind
	// A and B are the link endpoints for link and session events, or the
	// scope of a LossWindow (Wildcard/Wildcard = network-wide).
	A, B bgp.RouterID
	// Router is the target of crash/restart events.
	Router bgp.RouterID
	// Duration is the flap down-time, crash outage (0 = stays down), or
	// loss-window length.
	Duration time.Duration
	// Rate is the loss probability of a LossWindow, in [0, 1].
	Rate float64
}

// String renders the event in the Plan text format (see ParsePlan).
func (e Event) String() string {
	switch e.Kind {
	case KindLinkDown, KindLinkUp, KindSessionReset:
		return fmt.Sprintf("%s %s %d %d", e.At, e.Kind, e.A, e.B)
	case KindLinkFlap:
		return fmt.Sprintf("%s %s %d %d %s", e.At, e.Kind, e.A, e.B, e.Duration)
	case KindRouterCrash:
		return fmt.Sprintf("%s %s %d %s", e.At, e.Kind, e.Router, e.Duration)
	case KindRouterRestart:
		return fmt.Sprintf("%s %s %d", e.At, e.Kind, e.Router)
	case KindLossWindow:
		if e.A == Wildcard && e.B == Wildcard {
			return fmt.Sprintf("%s %s %s %g", e.At, e.Kind, e.Duration, e.Rate)
		}
		return fmt.Sprintf("%s %s %s %g %d %d", e.At, e.Kind, e.Duration, e.Rate, e.A, e.B)
	default:
		return fmt.Sprintf("%s %s", e.At, e.Kind)
	}
}

// FailLink fails the a-b link at the given instant.
func FailLink(at time.Duration, a, b bgp.RouterID) Event {
	return Event{At: at, Kind: KindLinkDown, A: a, B: b}
}

// RestoreLink restores the a-b link at the given instant.
func RestoreLink(at time.Duration, a, b bgp.RouterID) Event {
	return Event{At: at, Kind: KindLinkUp, A: a, B: b}
}

// FlapLink fails the a-b link at the given instant and restores it downFor
// later.
func FlapLink(at time.Duration, a, b bgp.RouterID, downFor time.Duration) Event {
	return Event{At: at, Kind: KindLinkFlap, A: a, B: b, Duration: downFor}
}

// ResetSession resets the a-b BGP session at the given instant.
func ResetSession(at time.Duration, a, b bgp.RouterID) Event {
	return Event{At: at, Kind: KindSessionReset, A: a, B: b}
}

// CrashRouter crashes router id at the given instant; with downFor > 0 it
// restarts downFor later, with downFor == 0 it stays down.
func CrashRouter(at time.Duration, id bgp.RouterID, downFor time.Duration) Event {
	return Event{At: at, Kind: KindRouterCrash, Router: id, Duration: downFor}
}

// RestartRouter restarts a crashed router id at the given instant.
func RestartRouter(at time.Duration, id bgp.RouterID) Event {
	return Event{At: at, Kind: KindRouterRestart, Router: id}
}

// NetworkLoss forces every link to lose messages with probability rate
// during [at, at+dur) — a network-wide burst outage when rate is 1.
func NetworkLoss(at, dur time.Duration, rate float64) Event {
	return Event{At: at, Kind: KindLossWindow, A: Wildcard, B: Wildcard, Duration: dur, Rate: rate}
}

// LinkLoss forces the a-b link (both directions) to lose messages with
// probability rate during [at, at+dur).
func LinkLoss(at, dur time.Duration, rate float64, a, b bgp.RouterID) Event {
	return Event{At: at, Kind: KindLossWindow, A: a, B: b, Duration: dur, Rate: rate}
}

// Plan is a composable fault scenario: a set of typed events applied to one
// network run. Plans are plain data — build them with NewPlan/Add, parse
// them with ParsePlan, and hand them to Apply (or let experiment.Scenario
// and cmd/rfdsim do so).
type Plan struct {
	Events []Event
}

// NewPlan builds a plan from the given events.
func NewPlan(events ...Event) *Plan {
	return &Plan{Events: events}
}

// Add appends events and returns the plan for chaining.
func (p *Plan) Add(events ...Event) *Plan {
	p.Events = append(p.Events, events...)
	return p
}

// Validate checks every event against the network: link events must name
// existing links, router events existing routers, rates must lie in [0, 1]
// and times must be non-negative. A nil network skips the topology checks.
func (p *Plan) Validate(n *bgp.Network) error {
	for i, e := range p.Events {
		if e.At < 0 {
			return fmt.Errorf("faults: event %d (%s): negative time", i, e)
		}
		if e.Duration < 0 {
			return fmt.Errorf("faults: event %d (%s): negative duration", i, e)
		}
		switch e.Kind {
		case KindLinkDown, KindLinkUp, KindSessionReset, KindLinkFlap:
			if n != nil && !linkExists(n, e.A, e.B) {
				return fmt.Errorf("faults: event %d (%s): no link %d-%d", i, e, e.A, e.B)
			}
		case KindRouterCrash, KindRouterRestart:
			if n != nil && (e.Router < 0 || int(e.Router) >= n.NumRouters()) {
				return fmt.Errorf("faults: event %d (%s): no router %d", i, e, e.Router)
			}
		case KindLossWindow:
			if e.Rate < 0 || e.Rate > 1 {
				return fmt.Errorf("faults: event %d (%s): rate %g outside [0, 1]", i, e, e.Rate)
			}
			wild := e.A == Wildcard && e.B == Wildcard
			if !wild && n != nil && !linkExists(n, e.A, e.B) {
				return fmt.Errorf("faults: event %d (%s): no link %d-%d", i, e, e.A, e.B)
			}
			if e.Duration == 0 {
				return fmt.Errorf("faults: event %d (%s): zero-length loss window", i, e)
			}
		default:
			return fmt.Errorf("faults: event %d: unknown kind %v", i, e.Kind)
		}
	}
	return nil
}

// linkExists reports whether the topology has an a-b link regardless of its
// current up/down state. A plan applies to a sequential network only: a
// shard network of the sharded engine refuses every fault.
func linkExists(n *bgp.Network, a, b bgp.RouterID) bool {
	if a < 0 || b < 0 || int(a) >= n.NumRouters() || int(b) >= n.NumRouters() {
		return false
	}
	return n.Graph().HasEdge(topology.NodeID(a), topology.NodeID(b))
}

// Apply validates the plan and schedules its events on the network's kernel,
// each at epoch+Event.At (epoch must not precede the kernel's current time).
// LossWindow events are folded into imp instead of scheduled; a plan that
// contains them requires a non-nil imp, which must also be installed on the
// network (bgp.Network.SetImpairment) for the windows to take effect. Apply
// is all-or-nothing: a plan it refuses leaves the kernel and imp untouched.
//
// The scheduled faults are typed events of one handler bound to n, under
// one kernel event kind per fault name (at most five), so they are
// simulation state like any timer: a fork of the network carries the pending
// ones, and rebinding those kinds forks the handler once (bgp.HandlerForker).
// The kinds outlive the plan's last event, so every later fork of the network
// forks the handler too.
//
// A plan drives one network: experiment applies it on the sequential engine
// only and refuses a fault plan on a sharded scenario.
func (p *Plan) Apply(n *bgp.Network, epoch time.Duration, imp *Impairments) error {
	if err := p.Validate(n); err != nil {
		return err
	}
	if imp == nil && slices.ContainsFunc(p.Events, func(e Event) bool { return e.Kind == KindLossWindow }) {
		return fmt.Errorf("faults: plan contains a loss window but no impairment model was given")
	}
	k := n.Kernel()
	if epoch < k.Now() {
		return fmt.Errorf("faults: epoch %v precedes kernel time %v", epoch, k.Now())
	}
	h := &planHandler{n: n, events: slices.Clone(p.Events)}
	for i, e := range h.events {
		at, arg := epoch+e.At, uint64(i)<<1
		switch e.Kind {
		case KindLinkDown:
			k.AtHandler(at, "faults.down", h, arg)
		case KindLinkUp:
			k.AtHandler(at, "faults.up", h, arg)
		case KindLinkFlap:
			k.AtHandler(at, "faults.down", h, arg)
			k.AtHandler(at+e.Duration, "faults.up", h, arg|1)
		case KindSessionReset:
			k.AtHandler(at, "faults.reset", h, arg)
		case KindRouterCrash:
			k.AtHandler(at, "faults.crash", h, arg)
			if e.Duration > 0 {
				k.AtHandler(at+e.Duration, "faults.restart", h, arg|1)
			}
		case KindRouterRestart:
			k.AtHandler(at, "faults.restart", h, arg)
		case KindLossWindow:
			if e.A == Wildcard && e.B == Wildcard {
				imp.AddWindow(at, at+e.Duration, e.Rate, Wildcard, Wildcard)
			} else {
				imp.AddWindow(at, at+e.Duration, e.Rate, e.A, e.B)
				imp.AddWindow(at, at+e.Duration, e.Rate, e.B, e.A)
			}
		}
	}
	return nil
}

// planHandler fires the scheduled faults of one applied plan on one network.
// An event's arg is its index in events shifted left by one, with the low bit
// set for the second half of a two-part fault (a flap's restore, a crash's
// restart).
type planHandler struct {
	n      *bgp.Network
	events []Event // a copy taken by Apply; never written after
}

// HandleEvent implements sim.Handler. The network entry points error only on
// unknown links/routers, which Validate has ruled out; overlapping faults
// (crashing a crashed router, failing a failed link) are defined no-ops, so
// there is no error to surface.
func (h *planHandler) HandleEvent(arg uint64) {
	e, second := h.events[arg>>1], arg&1 == 1
	switch e.Kind {
	case KindLinkDown, KindLinkFlap:
		_ = h.n.SetLinkState(e.A, e.B, second)
	case KindLinkUp:
		_ = h.n.SetLinkState(e.A, e.B, true)
	case KindSessionReset:
		_ = h.n.ResetSession(e.A, e.B)
	case KindRouterCrash:
		if !second {
			_ = h.n.CrashRouter(e.Router)
			return
		}
		_ = h.n.RestartRouter(e.Router)
	case KindRouterRestart:
		_ = h.n.RestartRouter(e.Router)
	}
}

// ForkHandler implements bgp.HandlerForker: the copy fires the same faults on
// the forked network f.
func (h *planHandler) ForkHandler(f *bgp.Network) sim.Handler {
	return &planHandler{n: f, events: h.events}
}
