package check

import (
	"fmt"
	"time"

	"rfd/bgp"
	"rfd/sim"
	"rfd/topology"
)

// linkKey identifies one directed link for conservation accounting.
type linkKey struct {
	From, To bgp.RouterID
}

// linkTally is the message ledger of one directed link. By construction of
// the hooks sent == delivered + dropped + inflight at every instant; the
// sweep re-asserts the identity and cross-checks the totals against the
// engine's own counters and pending-delivery queue, so a message the engine
// loses (or conjures) without the matching hook shows up immediately.
type linkTally struct {
	sent      uint64
	delivered uint64
	dropped   uint64
	inflight  int
}

func (c *Checker) tally(from, to bgp.RouterID) *linkTally {
	k := linkKey{From: from, To: to}
	t := c.links[k]
	if t == nil {
		t = &linkTally{}
		c.links[k] = t
	}
	return t
}

func (c *Checker) onSend(at time.Duration, msg bgp.Message) {
	t := c.tally(msg.From, msg.To)
	t.sent++
	t.inflight++
	c.sent++
	c.inflight++
	if h := c.prevDebug.OnSend; h != nil {
		h(at, msg)
	}
}

func (c *Checker) onDeliver(at time.Duration, msg bgp.Message) {
	t := c.tally(msg.From, msg.To)
	t.delivered++
	t.inflight--
	c.delivered++
	c.inflight--
	if h := c.prevDebug.OnDeliver; h != nil {
		h(at, msg)
	}
}

func (c *Checker) onDrop(at time.Duration, msg bgp.Message, reason bgp.DropReason) {
	t := c.tally(msg.From, msg.To)
	t.dropped++
	t.inflight--
	c.dropped++
	c.inflight--
	if h := c.prevDebug.OnDrop; h != nil {
		h(at, msg, reason)
	}
}

// sweep verifies every invariant against the network's current state.
func (c *Checker) sweep(at time.Duration) {
	c.checkConservation(at)
	for id := 0; id < c.n.NumRouters(); id++ {
		rid := bgp.RouterID(id)
		if !c.n.RouterUp(rid) {
			// A crashed router's protocol state is gone; drop its oracle
			// shadows so post-restart streams start fresh, like the engine.
			c.dropRouterShadows(rid)
			continue
		}
		c.sweepRouter(at, c.n.Router(rid))
	}
}

func (c *Checker) checkConservation(at time.Duration) {
	for k, t := range c.links {
		if t.sent != t.delivered+t.dropped+uint64(t.inflight) {
			c.record(at, -1, "conservation", fmt.Sprintf(
				"link %d->%d: sent %d != delivered %d + dropped %d + in-flight %d",
				k.From, k.To, t.sent, t.delivered, t.dropped, t.inflight))
		}
	}
	if c.inflight != c.n.PendingDeliveries() {
		c.record(at, -1, "conservation", fmt.Sprintf(
			"hooks saw %d messages in flight, engine has %d pending deliveries",
			c.inflight, c.n.PendingDeliveries()))
	}
	if got := c.n.Delivered() - c.baseDelivered; got != c.delivered {
		c.record(at, -1, "conservation", fmt.Sprintf(
			"hooks saw %d deliveries, engine counted %d", c.delivered, got))
	}
	if got := c.n.Dropped() - c.baseDropped; got != c.dropped {
		c.record(at, -1, "conservation", fmt.Sprintf(
			"hooks saw %d drops, engine counted %d", c.dropped, got))
	}
}

// candidate is the sweep's own run of the decision process: the best usable
// RIB-IN route seen so far for one prefix.
type candidate struct {
	class int
	peer  bgp.RouterID
	path  bgp.Path
}

func (c *Checker) sweepRouter(at time.Duration, r *bgp.Router) {
	rid := r.ID()
	clear(c.cand)
	clear(c.locals)

	maxPenalty := 0.0
	if params, ok := r.DampingParams(); ok {
		maxPenalty = params.MaxPenalty()
	}

	r.EachRIBIn(at, func(v bgp.RIBInView) {
		if v.HasDamping {
			if v.Penalty < 0 || v.Penalty > maxPenalty*(1+epsilon) {
				c.record(at, rid, "penalty-bounds", fmt.Sprintf(
					"peer %d prefix %s: penalty %.6g outside [0, %.6g]",
					v.Peer, v.Prefix, v.Penalty, maxPenalty))
			}
			if v.Suppressed && v.ReuseAt == sim.Never {
				c.record(at, rid, "reuse-timer", fmt.Sprintf(
					"peer %d prefix %s: route suppressed but no reuse timer pending",
					v.Peer, v.Prefix))
			}
			if !v.Suppressed && v.ReuseAt != sim.Never {
				c.record(at, rid, "reuse-timer", fmt.Sprintf(
					"peer %d prefix %s: reuse timer pending at %v on an unsuppressed route",
					v.Peer, v.Prefix, v.ReuseAt))
			}
		}
		c.compareShadow(at, rid, v)
		if v.Path != nil && !v.Suppressed {
			c.offerCandidate(r, v)
		}
	})

	r.EachLocal(func(lv bgp.LocalView) {
		c.locals[lv.Prefix] = lv
		c.checkLocal(at, r, lv)
		delete(c.cand, lv.Prefix)
	})
	for prefix, want := range c.cand {
		c.record(at, rid, "local-rib", fmt.Sprintf(
			"prefix %s: usable RIB-IN route via peer %d [%s] but no Local-RIB entry",
			prefix, want.peer, want.path))
	}

	r.EachRIBOut(func(v bgp.RIBOutView) {
		c.checkRIBOut(at, r, v)
	})
}

// prefClass mirrors the engine's policy ranking of the peer a route was
// learned from; larger is preferred.
func (c *Checker) prefClass(r *bgp.Router, peer bgp.RouterID) int {
	if c.cfg.Policy != bgp.NoValley {
		return 2
	}
	switch c.n.Graph().Relationship(r.ID(), peer) {
	case topology.RelCustomer:
		return 3
	case topology.RelProvider:
		return 1
	default:
		return 2
	}
}

// offerCandidate folds one usable RIB-IN route into the sweep's independent
// decision process (preference class, then shortest path, then lowest peer).
func (c *Checker) offerCandidate(r *bgp.Router, v bgp.RIBInView) {
	class := c.prefClass(r, v.Peer)
	cur, ok := c.cand[v.Prefix]
	better := false
	switch {
	case !ok:
		better = true
	case class != cur.class:
		better = class > cur.class
	case len(v.Path) != len(cur.path):
		better = len(v.Path) < len(cur.path)
	default:
		better = v.Peer < cur.peer
	}
	if better {
		c.cand[v.Prefix] = candidate{class: class, peer: v.Peer, path: v.Path}
	}
}

func (c *Checker) checkLocal(at time.Duration, r *bgp.Router, lv bgp.LocalView) {
	rid := r.ID()
	if lv.HasRoute && !lv.SelfOriginated {
		if lv.BestPath.Contains(rid) {
			c.record(at, rid, "loop-freedom", fmt.Sprintf(
				"prefix %s: selected path [%s] traverses the router itself",
				lv.Prefix, lv.BestPath))
		}
		if hop, dup := firstDuplicate(lv.BestPath); dup {
			c.record(at, rid, "loop-freedom", fmt.Sprintf(
				"prefix %s: selected path [%s] visits AS %d twice",
				lv.Prefix, lv.BestPath, hop))
		}
	}
	if r.Originates(lv.Prefix) {
		if !lv.SelfOriginated {
			c.record(at, rid, "local-rib", fmt.Sprintf(
				"prefix %s: originated locally but Local-RIB selects peer %d [%s]",
				lv.Prefix, lv.BestPeer, lv.BestPath))
		}
		return
	}
	if lv.SelfOriginated {
		c.record(at, rid, "local-rib", fmt.Sprintf(
			"prefix %s: Local-RIB claims self-origination of a prefix the router does not originate",
			lv.Prefix))
		return
	}
	want, ok := c.cand[lv.Prefix]
	switch {
	case !ok && lv.HasRoute:
		c.record(at, rid, "local-rib", fmt.Sprintf(
			"prefix %s: Local-RIB has peer %d [%s] but no usable RIB-IN entry exists",
			lv.Prefix, lv.BestPeer, lv.BestPath))
	case ok && !lv.HasRoute:
		c.record(at, rid, "local-rib", fmt.Sprintf(
			"prefix %s: Local-RIB empty but the decision process selects peer %d [%s]",
			lv.Prefix, want.peer, want.path))
	case ok && (lv.BestPeer != want.peer || !lv.BestPath.Equal(want.path)):
		c.record(at, rid, "local-rib", fmt.Sprintf(
			"prefix %s: Local-RIB has peer %d [%s], decision process selects peer %d [%s]",
			lv.Prefix, lv.BestPeer, lv.BestPath, want.peer, want.path))
	}
}

func (c *Checker) checkRIBOut(at time.Duration, r *bgp.Router, v bgp.RIBOutView) {
	rid := r.ID()
	if !c.n.SessionUp(rid, v.Peer) {
		if v.Advertised != nil || v.Pending {
			c.record(at, rid, "rib-out", fmt.Sprintf(
				"prefix %s to %d: advertisement state on a down session (advertised [%s], pending %t)",
				v.Prefix, v.Peer, v.Advertised, v.Pending))
		}
		if v.MRAIAt != sim.Never {
			c.record(at, rid, "rib-out", fmt.Sprintf(
				"prefix %s to %d: MRAI timer pending at %v on a down session",
				v.Prefix, v.Peer, v.MRAIAt))
		}
		return
	}
	desired := c.exportPath(r, c.locals[v.Prefix], v.Peer)
	if v.Pending {
		if v.MRAIAt == sim.Never {
			c.record(at, rid, "rib-out", fmt.Sprintf(
				"prefix %s to %d: announcement pending without an active MRAI timer",
				v.Prefix, v.Peer))
		}
		if !v.PendingPath.Equal(desired) {
			c.record(at, rid, "rib-out", fmt.Sprintf(
				"prefix %s to %d: pending announcement [%s] != export decision [%s]",
				v.Prefix, v.Peer, v.PendingPath, desired))
		}
		if desired.Equal(v.Advertised) {
			c.record(at, rid, "rib-out", fmt.Sprintf(
				"prefix %s to %d: announcement pending although [%s] is already advertised",
				v.Prefix, v.Peer, v.Advertised))
		}
		return
	}
	if !v.Advertised.Equal(desired) {
		c.record(at, rid, "rib-out", fmt.Sprintf(
			"prefix %s to %d: advertised [%s] != export decision [%s]",
			v.Prefix, v.Peer, v.Advertised, desired))
	}
}

// exportPath mirrors the engine's export policy: the Local-RIB route with the
// router prepended, nil when policy or loop filtering suppresses the export.
func (c *Checker) exportPath(r *bgp.Router, lv bgp.LocalView, q bgp.RouterID) bgp.Path {
	if !lv.HasRoute {
		return nil
	}
	if c.cfg.Policy == bgp.NoValley && !lv.SelfOriginated {
		g := c.n.Graph()
		if g.Relationship(r.ID(), lv.BestPeer) != topology.RelCustomer &&
			g.Relationship(r.ID(), q) != topology.RelCustomer {
			return nil
		}
	}
	adv := append(c.pathBuf[:0], r.ID())
	adv = append(adv, lv.BestPath...)
	c.pathBuf = adv
	if adv.Contains(q) {
		return nil
	}
	return adv
}

// firstDuplicate reports a hop that appears twice in the path. Paths are
// short (AS-path lengths), so the quadratic scan is fine.
func firstDuplicate(p bgp.Path) (bgp.RouterID, bool) {
	for i := 1; i < len(p); i++ {
		for j := 0; j < i; j++ {
			if p[i] == p[j] {
				return p[i], true
			}
		}
	}
	return 0, false
}
