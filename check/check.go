// Package check is the opt-in runtime invariant checker for the bgp engine,
// plus a differential damping oracle that replays every (router, peer, prefix)
// update stream through an independent damping implementation.
//
// A Checker attaches to a live Network and observes every kernel event through
// the after-event hook: once the event's callback has returned — and before
// the next event fires — it sweeps the network and verifies, for every router
// that is up:
//
//   - Local-RIB correctness: the installed route is the preference-best of the
//     unsuppressed RIB-IN entries (policy class, then shortest path, then
//     lowest peer id), or the self-originated route for originated prefixes.
//   - RIB-OUT consistency: what each peer has been told matches the export
//     policy applied to the Local-RIB, modulo an announcement legitimately
//     held back by an active MRAI timer; sessions that are down carry no
//     advertisement state.
//   - Damping sanity: every penalty lies in [0, Params.MaxPenalty()], and a
//     route is suppressed if and only if its reuse timer is pending.
//   - AS-path loop freedom of every selected route.
//   - Virtual clock monotonicity.
//   - Message conservation per directed link: sent equals delivered plus
//     dropped (impairment or severed session) plus in flight, cross-checked
//     against the engine's own delivery counters and queue.
//
// Independently, the differential oracle (see oracle.go) feeds every observed
// update through shadow damping state and, at Finish, through the standalone
// damping.Replay and — for the ispAS stream — the analytic model, failing
// loudly on any divergence between the engine and those reference
// implementations.
//
// Violations are collected as readable diagnoses (virtual time, event name,
// router, invariant, expected vs. actual), never panics; the run continues so
// one report can show several independent problems.
package check

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"rfd/bgp"
	"rfd/rcn"
	"rfd/sim"
)

// Options configures a Checker.
type Options struct {
	// ISP, Origin and Prefix identify the stream the analytic single-router
	// model is checked against: the updates Origin sends ISP for Prefix. The
	// analytic cross-check is skipped when Prefix is empty.
	ISP    bgp.RouterID
	Origin bgp.RouterID
	Prefix bgp.Prefix
}

// maxViolations bounds how many violations are kept with full diagnoses (the
// total count keeps counting past it).
const maxViolations = 16

// epsilon is the relative tolerance for penalty comparisons between the
// engine and the oracle. The shadow performs bit-identical float operations,
// so only accumulated rounding in independent decay paths needs headroom.
const epsilon = 1e-9

// Violation is one invariant failure: where it happened, which invariant, and
// an expected-vs-actual diagnosis.
type Violation struct {
	// At is the virtual time of the event the violation was detected after.
	At time.Duration
	// Event is the kernel event name ("(attach)" for the attach-time sweep,
	// "(external)" for mutations made between kernel events by direct API
	// calls, "(finish)" for end-of-run cross-checks).
	Event string
	// Router is the router the invariant belongs to, or -1 for network-level
	// invariants (conservation, clock).
	Router bgp.RouterID
	// Invariant names the violated invariant ("local-rib", "rib-out",
	// "penalty-bounds", "reuse-timer", "loop-freedom", "conservation",
	// "clock", "damping-oracle", "replay-oracle", "analytic-oracle",
	// "oracle-stream").
	Invariant string
	// Detail is the human-readable diagnosis.
	Detail string
}

// String renders the violation on one line.
func (v Violation) String() string {
	who := "network"
	if v.Router >= 0 {
		who = fmt.Sprintf("router %d", v.Router)
	}
	return fmt.Sprintf("t=%v event=%s %s [%s]: %s", v.At, v.Event, who, v.Invariant, v.Detail)
}

// Report summarizes a checked run.
type Report struct {
	// Events is how many kernel events the checker swept after.
	Events uint64
	// Updates is how many RIB-IN updates the oracle observed.
	Updates uint64
	// Streams is how many (router, peer, prefix) update streams were shadowed.
	Streams int
	// Total counts every violation detected; Violations keeps the first 16
	// of them with full diagnoses.
	Total      int
	Violations []Violation
}

// Ok reports whether the run was violation-free.
func (r *Report) Ok() bool { return r.Total == 0 }

// Err returns nil for a clean run, or an error carrying every recorded
// diagnosis.
func (r *Report) Err() error {
	if r.Ok() {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "check: %d invariant violation(s) in %d events", r.Total, r.Events)
	for _, v := range r.Violations {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	if r.Total > len(r.Violations) {
		fmt.Fprintf(&b, "\n  ... and %d more", r.Total-len(r.Violations))
	}
	return fmt.Errorf("%s", b.String())
}

// String summarizes the report on one line.
func (r *Report) String() string {
	return fmt.Sprintf("check: %d events, %d updates, %d streams, %d violation(s)",
		r.Events, r.Updates, r.Streams, r.Total)
}

// Checker observes one Network. Create with Attach, or with Fork for a fork of
// an observed network; call Finish at the end of the run for the
// replay/analytic cross-checks, then Detach to restore the hooks it chained.
// Checker is not safe for concurrent use (neither is the kernel it watches);
// a checker and its forks share nothing mutable.
type Checker struct {
	n    *bgp.Network
	k    *sim.Kernel
	opts Options
	cfg  bgp.Config

	prevTrace sim.TraceFunc
	prevAfter sim.TraceFunc
	prevDebug bgp.DebugHooks
	detached  bool
	finished  bool

	curEvent string
	lastAt   time.Duration
	events   uint64
	updates  uint64

	// Differential oracle state (oracle.go).
	streams map[streamKey]*stream
	hists   map[histKey]*rcn.History

	// Conservation tallies.
	links         map[linkKey]*linkTally
	inflight      int
	sent          uint64
	delivered     uint64
	dropped       uint64
	baseDelivered uint64
	baseDropped   uint64

	total      int
	violations []Violation

	// Per-router sweep scratch, reused across events.
	cand    map[bgp.Prefix]candidate
	locals  map[bgp.Prefix]bgp.LocalView
	pathBuf bgp.Path
}

// Attach hooks a Checker into the network and validates the current state
// once. The checker chains the kernel's trace and after-event observers and
// the network's debug hooks, preserving any previously installed ones; attach
// and detach checkers (and other observers like the fault watchdog) in LIFO
// order.
//
// The differential oracle assumes damping state is clean at attach time: a
// RIB-IN entry with nonzero penalty or active suppression has unobservable
// history, so its stream is marked desynchronized and exempted from oracle
// comparison (structural invariants still apply). Attach right after
// Network.ResetDamping — as experiment.Scenario does — for full coverage.
func Attach(n *bgp.Network, opts Options) (*Checker, error) {
	if n == nil {
		return nil, fmt.Errorf("check: nil network")
	}
	c := &Checker{
		opts:     opts,
		cfg:      n.Config(),
		curEvent: "(attach)",
		streams:  make(map[streamKey]*stream),
		hists:    make(map[histKey]*rcn.History),
		links:    make(map[linkKey]*linkTally),
	}
	c.install(n)
	c.lastAt = c.k.Now()
	c.baseDelivered = n.Delivered()
	c.baseDropped = n.Dropped()
	c.seedStreams()
	c.sweep(c.lastAt)
	c.curEvent = "(external)"
	return c, nil
}

// Fork returns an independent copy of the checker installed on n, which must
// be a fork of the checker's network taken at this instant (bgp.Network.Fork).
// Shadow streams, RCN histories, link ledgers, counters and violations are
// deep-copied, so the two checkers go on certifying their own networks: a
// violation on one side is reported on that side only. The copy chains
// whatever observers n carries now, as Attach would.
func (c *Checker) Fork(n *bgp.Network) *Checker {
	f := *c
	f.streams = make(map[streamKey]*stream, len(c.streams))
	for k, st := range c.streams {
		cp := *st
		if st.state != nil {
			cp.state = st.state.Clone()
		}
		cp.updates = slices.Clone(st.updates)
		f.streams[k] = &cp
	}
	f.hists = make(map[histKey]*rcn.History, len(c.hists))
	for k, h := range c.hists {
		f.hists[k] = h.Clone()
	}
	f.links = make(map[linkKey]*linkTally, len(c.links))
	for k, t := range c.links {
		cp := *t
		f.links[k] = &cp
	}
	f.violations = slices.Clone(c.violations)
	f.install(n)
	return &f
}

// install points the checker at n and chains its observers into n's kernel
// and debug hooks. The sweep scratch is the checker's own.
func (c *Checker) install(n *bgp.Network) {
	c.n, c.k = n, n.Kernel()
	c.cand = make(map[bgp.Prefix]candidate)
	c.locals = make(map[bgp.Prefix]bgp.LocalView)
	c.pathBuf = nil
	c.prevTrace = c.k.Trace()
	c.k.SetTrace(c.onTrace)
	c.prevAfter = c.k.AfterEvent()
	c.k.SetAfterEvent(c.onAfterEvent)
	c.prevDebug = n.DebugHooks()
	n.SetDebugHooks(bgp.DebugHooks{
		OnSend:    c.onSend,
		OnDeliver: c.onDeliver,
		OnDrop:    c.onDrop,
		OnUpdate:  c.onUpdate,
	})
}

// Detach restores the observers the checker displaced. Safe to call more than
// once.
func (c *Checker) Detach() {
	if c.detached {
		return
	}
	c.detached = true
	c.k.SetTrace(c.prevTrace)
	c.k.SetAfterEvent(c.prevAfter)
	c.n.SetDebugHooks(c.prevDebug)
}

// Report returns the current report. It can be consulted mid-run; Finish adds
// the end-of-run cross-checks.
func (c *Checker) Report() *Report {
	return &Report{
		Events:     c.events,
		Updates:    c.updates,
		Streams:    len(c.streams),
		Total:      c.total,
		Violations: append([]Violation(nil), c.violations...),
	}
}

// Finish runs the end-of-run cross-checks — a final sweep, the standalone
// damping.Replay of every pure stream, and the analytic single-router model
// for the configured ispAS stream — and returns the final report. Call it
// once, after the run has drained; use Report for mid-run snapshots.
func (c *Checker) Finish() *Report {
	if !c.finished {
		c.finished = true
		c.curEvent = "(finish)"
		c.sweep(c.k.Now())
		c.finishOracle(c.k.Now())
	}
	return c.Report()
}

// record adds one violation.
func (c *Checker) record(at time.Duration, router bgp.RouterID, invariant, detail string) {
	c.total++
	if len(c.violations) < maxViolations {
		c.violations = append(c.violations, Violation{
			At:        at,
			Event:     c.curEvent,
			Router:    router,
			Invariant: invariant,
			Detail:    detail,
		})
	}
}

// onTrace labels in-flight diagnoses with the event about to fire.
func (c *Checker) onTrace(at time.Duration, name string) {
	c.curEvent = name
	if c.prevTrace != nil {
		c.prevTrace(at, name)
	}
}

// onAfterEvent is the per-event sweep: the callback has returned, so the
// network is in whatever state the event left it, and every invariant must
// hold.
func (c *Checker) onAfterEvent(at time.Duration, name string) {
	c.events++
	c.curEvent = name
	if at < c.lastAt {
		c.record(at, -1, "clock", fmt.Sprintf("virtual clock went backwards: %v after %v", at, c.lastAt))
	}
	c.lastAt = at
	c.sweep(at)
	// Anything mutated before the next event fires is a direct API call.
	c.curEvent = "(external)"
	if c.prevAfter != nil {
		c.prevAfter(at, name)
	}
}
