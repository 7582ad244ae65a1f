package check

import (
	"fmt"
	"math"
	"sort"
	"time"

	"rfd/analytic"
	"rfd/bgp"
	"rfd/damping"
	"rfd/rcn"
)

// The differential oracle shadows every (router, peer, prefix) update stream
// with an independently-driven damping.State: each update the engine applies
// (observed via DebugHooks.OnUpdate, before the engine mutates anything) is
// classified, charge-filtered and fed into the shadow by the checker's own
// reimplementation of the engine's charging rules. The per-event sweep then
// compares engine and shadow; at Finish the recorded streams additionally run
// through the standalone damping.Replay, and the ispAS stream through the
// analytic single-router model. A bug in the engine's charging, decay, or
// reuse logic therefore has to fool three implementations at once to go
// unnoticed.

// streamKey identifies one update stream: what router hears from peer about
// prefix.
type streamKey struct {
	Router, Peer bgp.RouterID
	Prefix       bgp.Prefix
}

// histKey identifies one shadow RCN history (engine: per router per peer).
type histKey struct {
	Router, Peer bgp.RouterID
}

// stream is the oracle's shadow of one update stream.
type stream struct {
	// state is the shadow damping state; nil when the router has damping
	// disabled (the shadow then only tracks route presence and path).
	state *damping.State
	// desynced marks a stream exempt from oracle comparison: its damping
	// history is unobservable (nonzero at attach) or it already diverged
	// (one divergence is reported once, not once per subsequent event).
	desynced bool
	// pure reports that every update charged the penalty — no RCN or
	// selective-damping veto — so the stream is exactly reproducible by
	// damping.Replay, which always charges.
	pure bool

	// Route state mirror, used for classification and compared against the
	// engine's RIB-IN by the sweep.
	present bool
	ever    bool
	path    bgp.Path

	// Recorded history for the Finish cross-checks.
	updates             []damping.TimedUpdate
	suppressions        int
	firstSuppression    int // 1-based update index of the first onset
	maxPenalty          float64
	lastPenalty         float64
	suppressedAfterLast bool
	seenUpdate          bool
}

// seedStreams creates shadows for every RIB-IN entry that exists at attach
// time. Entries carrying nonzero damping state start desynchronized (their
// history was not observed), which exempts them from oracle comparison.
func (c *Checker) seedStreams() {
	now := c.k.Now()
	for id := 0; id < c.n.NumRouters(); id++ {
		rid := bgp.RouterID(id)
		if !c.n.RouterUp(rid) {
			continue
		}
		r := c.n.Router(rid)
		params, damps := r.DampingParams()
		r.EachRIBIn(now, func(v bgp.RIBInView) {
			st := &stream{
				pure:    true,
				present: v.Path != nil,
				ever:    v.EverPresent,
				path:    v.Path,
			}
			if damps {
				st.state = damping.NewState(params)
				if v.Penalty > 1e-6 || v.Suppressed {
					st.desynced = true
				}
			}
			c.streams[streamKey{Router: rid, Peer: v.Peer, Prefix: v.Prefix}] = st
		})
	}
}

// histFor returns (creating if needed) the shadow root-cause history for
// (router, peer).
func (c *Checker) histFor(router, peer bgp.RouterID) *rcn.History {
	k := histKey{Router: router, Peer: peer}
	h := c.hists[k]
	if h == nil {
		h = rcn.NewHistory(rcn.DefaultHistorySize)
		c.hists[k] = h
	}
	return h
}

// dropRouterShadows forgets a crashed router's streams and histories; the
// engine discarded the corresponding state, and post-restart streams must
// start fresh on both sides.
func (c *Checker) dropRouterShadows(rid bgp.RouterID) {
	for k := range c.streams {
		if k.Router == rid {
			delete(c.streams, k)
		}
	}
	for k := range c.hists {
		if k.Router == rid {
			delete(c.hists, k)
		}
	}
}

// onUpdate observes one update before the engine applies it and drives the
// shadow through the same classification and charging rules.
func (c *Checker) onUpdate(at time.Duration, router, peer bgp.RouterID, prefix bgp.Prefix,
	withdraw bool, path bgp.Path, cause rcn.Cause) {
	c.updates++
	c.oracleUpdate(at, router, peer, prefix, withdraw, path, cause)
	if h := c.prevDebug.OnUpdate; h != nil {
		h(at, router, peer, prefix, withdraw, path, cause)
	}
}

func (c *Checker) oracleUpdate(at time.Duration, router, peer bgp.RouterID, prefix bgp.Prefix,
	withdraw bool, path bgp.Path, cause rcn.Cause) {
	key := streamKey{Router: router, Peer: peer, Prefix: prefix}
	st := c.streams[key]
	if st == nil {
		st = &stream{pure: true}
		if params, ok := c.n.Router(router).DampingParams(); ok {
			st.state = damping.NewState(params)
		}
		c.streams[key] = st
	}
	if st.state != nil {
		kind := damping.Classify(withdraw, st.present, st.ever, !withdraw && !path.Equal(st.path))
		charge := true
		chargeKind := kind
		if c.cfg.SelectiveDamping && !withdraw && st.present && len(path) > len(st.path) {
			charge = false
		}
		if c.cfg.EnableRCN {
			// The shadow history must witness every cause the engine's does,
			// even on desynced streams: histories are shared per (router,
			// peer) across prefixes, so skipping one stream's causes would
			// corrupt another's charges.
			charge = c.histFor(router, peer).Witness(cause)
			if charge && !cause.IsZero() {
				if cause.Status == rcn.LinkDown {
					chargeKind = damping.KindWithdrawal
				} else {
					chargeKind = damping.KindReannouncement
				}
			}
		}
		if !st.desynced {
			ev := st.state.Update(at, chargeKind, charge)
			if !charge {
				st.pure = false
			}
			if ev.BecameSuppressed {
				st.suppressions++
				if st.firstSuppression == 0 {
					st.firstSuppression = len(st.updates) + 1
				}
			}
			if ev.Penalty > st.maxPenalty {
				st.maxPenalty = ev.Penalty
			}
			st.updates = append(st.updates, damping.TimedUpdate{At: at, Kind: chargeKind})
			st.lastPenalty = ev.Penalty
			st.suppressedAfterLast = ev.Suppressed
			st.seenUpdate = true
		}
	}
	if withdraw {
		st.present = false
		st.path = nil
	} else {
		st.present, st.ever = true, true
		st.path = path
	}
}

// compareShadow checks one RIB-IN entry against its shadow stream during the
// per-event sweep.
func (c *Checker) compareShadow(at time.Duration, rid bgp.RouterID, v bgp.RIBInView) {
	st := c.streams[streamKey{Router: rid, Peer: v.Peer, Prefix: v.Prefix}]
	if st == nil {
		c.record(at, rid, "oracle-stream", fmt.Sprintf(
			"peer %d prefix %s: RIB-IN entry with no shadow stream (update applied without firing OnUpdate?)",
			v.Peer, v.Prefix))
		return
	}
	if (v.Path != nil) != st.present {
		c.record(at, rid, "oracle-stream", fmt.Sprintf(
			"peer %d prefix %s: engine route present=%t, shadow present=%t",
			v.Peer, v.Prefix, v.Path != nil, st.present))
	} else if !v.Path.Equal(st.path) {
		c.record(at, rid, "oracle-stream", fmt.Sprintf(
			"peer %d prefix %s: engine path [%s] != shadow path [%s]",
			v.Peer, v.Prefix, v.Path, st.path))
	}
	if v.EverPresent != st.ever {
		c.record(at, rid, "oracle-stream", fmt.Sprintf(
			"peer %d prefix %s: engine ever-present=%t, shadow ever-present=%t",
			v.Peer, v.Prefix, v.EverPresent, st.ever))
	}
	if st.state == nil || st.desynced || !v.HasDamping {
		return
	}
	if v.Suppressed != st.state.Suppressed() {
		if !v.Suppressed {
			// The engine lifted suppression (its reuse timer fired). The
			// shadow lifts only through this path, so mirror it — and if the
			// shadow's penalty has not decayed to the reuse threshold, the
			// engine reused the route too early.
			if !st.state.TryReuse(at) {
				c.record(at, rid, "damping-oracle", fmt.Sprintf(
					"peer %d prefix %s: engine lifted suppression but shadow penalty %.6g is still above the reuse threshold",
					v.Peer, v.Prefix, st.state.Penalty(at)))
				st.desynced = true
				return
			}
		} else {
			c.record(at, rid, "damping-oracle", fmt.Sprintf(
				"peer %d prefix %s: engine suppressed, shadow not (penalty %.6g vs %.6g)",
				v.Peer, v.Prefix, v.Penalty, st.state.Penalty(at)))
			st.desynced = true
			return
		}
	}
	sp := st.state.Penalty(at)
	if !c.floatClose(v.Penalty, sp) {
		c.record(at, rid, "damping-oracle", fmt.Sprintf(
			"peer %d prefix %s: engine penalty %.6g != shadow penalty %.6g",
			v.Peer, v.Prefix, v.Penalty, sp))
		st.desynced = true
	}
}

// finishOracle runs the end-of-run cross-checks: damping.Replay over every
// pure recorded stream, and the analytic model over the configured ispAS
// stream. Streams are visited in deterministic (router, peer, prefix) order.
func (c *Checker) finishOracle(at time.Duration) {
	keys := make([]streamKey, 0, len(c.streams))
	for k := range c.streams {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Router != b.Router {
			return a.Router < b.Router
		}
		if a.Peer != b.Peer {
			return a.Peer < b.Peer
		}
		return a.Prefix < b.Prefix
	})
	for _, k := range keys {
		st := c.streams[k]
		if st.state == nil || st.desynced || !st.pure || !st.seenUpdate {
			continue
		}
		res, err := damping.Replay(st.state.Params(), st.updates)
		if err != nil {
			c.record(at, k.Router, "replay-oracle", fmt.Sprintf(
				"peer %d prefix %s: replay failed: %v", k.Peer, k.Prefix, err))
			continue
		}
		if res.Suppressions != st.suppressions {
			c.record(at, k.Router, "replay-oracle", fmt.Sprintf(
				"peer %d prefix %s: replay saw %d suppression onsets, engine stream saw %d",
				k.Peer, k.Prefix, res.Suppressions, st.suppressions))
		}
		if !c.floatClose(res.MaxPenalty, st.maxPenalty) {
			c.record(at, k.Router, "replay-oracle", fmt.Sprintf(
				"peer %d prefix %s: replay max penalty %.6g != engine stream %.6g",
				k.Peer, k.Prefix, res.MaxPenalty, st.maxPenalty))
		}
		if last := res.Points[len(res.Points)-1]; !c.floatClose(last.Penalty, st.lastPenalty) {
			c.record(at, k.Router, "replay-oracle", fmt.Sprintf(
				"peer %d prefix %s: replay final penalty %.6g != engine stream %.6g",
				k.Peer, k.Prefix, last.Penalty, st.lastPenalty))
		}
	}
	c.finishAnalytic(at)
}

// finishAnalytic checks the engine's ispAS stream against the paper's
// single-router model: what the router adjacent to the flapping link actually
// accumulated must equal what Section 3 predicts for that event sequence.
func (c *Checker) finishAnalytic(at time.Duration) {
	if c.opts.Prefix == "" {
		return
	}
	st := c.streams[streamKey{Router: c.opts.ISP, Peer: c.opts.Origin, Prefix: c.opts.Prefix}]
	if st == nil || st.state == nil || st.desynced || !st.pure || !st.seenUpdate {
		return
	}
	pred, err := analytic.Predict(st.state.Params(), st.updates, 0)
	if err != nil {
		c.record(at, c.opts.ISP, "analytic-oracle", fmt.Sprintf(
			"origin %d prefix %s: predict failed: %v", c.opts.Origin, c.opts.Prefix, err))
		return
	}
	if !c.floatClose(pred.FinalPenalty, st.lastPenalty) {
		c.record(at, c.opts.ISP, "analytic-oracle", fmt.Sprintf(
			"origin %d prefix %s: analytic final penalty %.6g != engine %.6g",
			c.opts.Origin, c.opts.Prefix, pred.FinalPenalty, st.lastPenalty))
	}
	if pred.Suppressed != st.suppressedAfterLast {
		c.record(at, c.opts.ISP, "analytic-oracle", fmt.Sprintf(
			"origin %d prefix %s: analytic suppressed=%t at last event, engine %t",
			c.opts.Origin, c.opts.Prefix, pred.Suppressed, st.suppressedAfterLast))
	}
	if pred.SuppressedAtEvent != st.firstSuppression {
		c.record(at, c.opts.ISP, "analytic-oracle", fmt.Sprintf(
			"origin %d prefix %s: analytic suppression onset at event %d, engine at %d",
			c.opts.Origin, c.opts.Prefix, pred.SuppressedAtEvent, st.firstSuppression))
	}
}

// floatClose compares penalties with relative tolerance epsilon.
func (c *Checker) floatClose(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := 1.0
	if aa := math.Abs(a); aa > scale {
		scale = aa
	}
	if bb := math.Abs(b); bb > scale {
		scale = bb
	}
	return diff <= epsilon*scale
}
