package bgp

import (
	"fmt"
	"time"

	"rfd/damping"
	"rfd/internal/xrand"
	"rfd/rcn"
	"rfd/sim"
	"rfd/topology"
)

// selfPeer marks a Local-RIB entry whose route is originated locally.
const selfPeer = RouterID(-1)

// ribInEntry is the adj-RIB-in state for one (directed slot, prefix id): the
// last route received (path id 0 when withdrawn), the flap history damping
// needs, the damping record (zero and unused on a router without damping;
// its parameters are the router's, Router.damp), and the pending reuse
// timer. Entries live inline in the network's flat RIB-IN; seen distinguishes
// a live entry from the zero-valued padding. An entry holds no pointer, so
// the garbage collector never scans the RIB, and a fork copies it as it is.
// The root cause the route arrived with is kept beside it, in
// Network.inCause.
type ribInEntry struct {
	damp        damping.Merit
	reuseTimer  sim.Timer
	path        pathID
	everPresent bool
	seen        bool
}

// usable reports whether the entry's route may enter the Local-RIB: live,
// announced and not suppressed.
func (e *ribInEntry) usable() bool {
	return e.seen && e.path != 0 && !e.damp.Suppressed()
}

// ribOutEntry is the adj-RIB-out state for one (directed slot, prefix id):
// what has been advertised, the end of the MRAI interval the last
// announcement started, and the announcement waiting for it. The interval end
// is a reserved place in the kernel's event order, not an event: expiry is
// pushed under it only while an announcement is pending, and cancelled when
// none is. The pending announcement's root cause is kept beside it, in
// Network.outCause. Both paths are ids (0 for none); like ribInEntry, the
// entry holds no pointer.
type ribOutEntry struct {
	advertised  pathID
	pendingPath pathID
	mrai        sim.Mark
	expiry      sim.Timer
	pending     bool
	seen        bool
}

// localEntry is the Local-RIB entry for one (prefix id, router). seen marks
// entries the decision process has ever written (the dense equivalent of
// map-key presence); stale marks an entry whose RIB-IN changed without a
// reconcile, so the next reconcile must run the full decision process (see
// reselect). equal ignores both.
type localEntry struct {
	bestPeer RouterID // selfPeer when originated locally
	bestPath pathID   // the RIB-IN path of bestPeer (0 when self-originated)
	hasRoute bool
	seen     bool
	stale    bool
}

func (l localEntry) equal(o localEntry) bool {
	return l.hasRoute == o.hasRoute && l.bestPeer == o.bestPeer && l.bestPath == o.bestPath
}

// origin is one router's origination state for one prefix id: on while it
// originates the prefix, ever once it has.
type origin struct{ on, ever bool }

// packDirPrefix packs a directed slot and prefix id into a typed-event arg.
func packDirPrefix(dir, pid int32) uint64 {
	return uint64(uint32(dir))<<32 | uint64(uint32(pid))
}

// mraiHandler and reuseHandler adapt the kernel's typed-event interface to
// the routers' timer callbacks. They are fields of Network (not fresh
// allocations), so pushing an MRAI expiry or arming a reuse timer allocates
// nothing, and a fork rebinds every pending timer by rebinding two handlers.
// The event arg names the directed slot, which names the router.
type mraiHandler struct{ n *Network }

func (h *mraiHandler) HandleEvent(arg uint64) {
	r, slot := h.n.dirRouter(int32(arg >> 32))
	r.mraiExpired(slot, int32(uint32(arg)))
}

type reuseHandler struct{ n *Network }

func (h *reuseHandler) HandleEvent(arg uint64) {
	r, slot := h.n.dirRouter(int32(arg >> 32))
	r.reuseExpired(slot, int32(uint32(arg)))
}

// Router is one BGP speaker. Routers are created by NewNetwork — one per
// topology node — and driven entirely by simulation events.
//
// A Router holds only what is fixed at construction plus its RNG stream; its
// RIBs live in the network's flat per-(directed slot, prefix id) and
// per-(prefix id, router) slices. Peers map to slots 0..len(peers)-1
// (ascending peer id order), and the router's directed slots are base+slot,
// so the hot path indexes flat arrays instead of walking nested maps.
type Router struct {
	id  RouterID
	net *Network
	// base is the router's first directed slot (its CSR row start).
	base int32
	// peers is the router's CSR row (sorted ascending, fixed at
	// construction, shared with the network and its forks): a peer's slot is
	// its offset in the row.
	peers []RouterID
	// damp holds this router's damping rules (nil = damping disabled
	// here), resolved once at construction from Config.Damping /
	// Config.DampingSelect and shared by the routers with equal parameters.
	damp *damping.Rules
	rng  xrand.Rand
}

// ID returns the router's identifier.
func (r *Router) ID() RouterID { return r.id }

// slotOf returns the peer's slot, -1 when peer is not a neighbor. It is for
// cold paths: the update path carries slots instead of looking them up.
func (r *Router) slotOf(peer RouterID) int32 {
	return rowSlot(r.peers, peer)
}

// Originate starts advertising prefix from this router. It is the
// experiment-facing knob that models the originAS side of the flapping link
// coming up: the update it triggers carries a fresh LinkUp root cause when
// RCN is enabled. Originating an already-originated prefix is a no-op.
func (r *Router) Originate(prefix Prefix) {
	pid := r.net.prefixID(prefix)
	o := r.origin(pid)
	if o.on {
		return
	}
	*o = origin{on: true, ever: true}
	r.reconcile(pid, noSlot, r.originationCause(pid, rcn.LinkUp))
}

// StopOriginating withdraws a locally originated prefix, modelling the
// flapping link going down. A no-op when not originating.
func (r *Router) StopOriginating(prefix Prefix) {
	pid, ok := r.net.lookupPrefix(prefix)
	if !ok || !r.isOriginated(pid) {
		return
	}
	r.origin(pid).on = false
	r.reconcile(pid, noSlot, r.originationCause(pid, rcn.LinkDown))
}

// Originates reports whether the router currently originates prefix.
func (r *Router) Originates(prefix Prefix) bool {
	pid, ok := r.net.lookupPrefix(prefix)
	return ok && r.isOriginated(pid)
}

// origin returns the router's origination state for prefix id pid.
func (r *Router) origin(pid int32) *origin {
	return &r.net.orig[r.net.locIdx(r.id, pid)]
}

// isOriginated reports whether the router currently originates prefix id pid.
func (r *Router) isOriginated(pid int32) bool {
	return r.origin(pid).on
}

// originationCause stamps an origination change with a root cause when RCN
// is on. The "link" of the cause is the router's (conceptual) uplink to the
// origin, identified by the router itself on both ends.
func (r *Router) originationCause(pid int32, status rcn.Status) rcn.Cause {
	if !r.net.cfg.EnableRCN {
		return rcn.Cause{}
	}
	return r.net.origSeq[r.net.locIdx(r.id, pid)].Next(int(r.id), int(r.id), status)
}

// LocalRoute returns the router's current best path for prefix (nil for a
// self-originated route) and whether any route is installed. The returned
// path is an independent copy.
func (r *Router) LocalRoute(prefix Prefix) (Path, bool) {
	pid, _ := r.net.lookupPrefix(prefix)
	l := r.localAt(pid)
	return r.net.paths.path(l.bestPath).Clone(), l.hasRoute
}

// local returns the Local-RIB entry for prefix id pid.
func (r *Router) local(pid int32) *localEntry {
	return &r.net.local[r.net.locIdx(r.id, pid)]
}

// localAt returns the Local-RIB entry for prefix id pid (zero when absent).
func (r *Router) localAt(pid int32) localEntry {
	if pid < 0 {
		return localEntry{}
	}
	return *r.local(pid)
}

// ribIn returns the RIB-IN entry for (peer slot, prefix id), live or not.
// The pointer is invalidated when a new prefix id grows the RIBs; do not hold
// it across calls that may assign one.
func (r *Router) ribIn(slot, pid int32) *ribInEntry {
	return &r.net.ribIn[r.net.ribIdx(r.base+slot, pid)]
}

// ribOut returns the RIB-OUT entry for (peer slot, prefix id), live or not.
// Same aliasing caveat as ribIn.
func (r *Router) ribOut(slot, pid int32) *ribOutEntry {
	return &r.net.ribOut[r.net.ribIdx(r.base+slot, pid)]
}

// ribInAt returns the live RIB-IN entry for (peer slot, prefix id), nil when
// absent.
func (r *Router) ribInAt(slot, pid int32) *ribInEntry {
	if slot < 0 || pid < 0 {
		return nil
	}
	if e := r.ribIn(slot, pid); e.seen {
		return e
	}
	return nil
}

// ribOutAt returns the live RIB-OUT entry for (peer slot, prefix id), nil
// when absent.
func (r *Router) ribOutAt(slot, pid int32) *ribOutEntry {
	if slot < 0 || pid < 0 {
		return nil
	}
	if e := r.ribOut(slot, pid); e.seen {
		return e
	}
	return nil
}

// ensureRibIn returns (creating if needed) the RIB-IN entry for (slot, pid).
func (r *Router) ensureRibIn(slot, pid int32) *ribInEntry {
	e := r.ribIn(slot, pid)
	e.seen = true
	return e
}

// ensureRibOut returns (creating if needed) the RIB-OUT entry for (slot, pid).
func (r *Router) ensureRibOut(slot, pid int32) *ribOutEntry {
	e := r.ribOut(slot, pid)
	e.seen = true
	return e
}

// procDelay draws the router's per-update processing delay.
func (r *Router) procDelay() time.Duration {
	return minProcDelay + time.Duration(r.rng.Uint64n(uint64(maxProcDelay-minProcDelay)))
}

// receive processes one delivered update from the peer in slot: damping
// charge, RIB-IN update, decision process, export.
func (r *Router) receive(slot int32, pm *pendingMsg) {
	if !pm.withdraw && r.net.paths.path(pm.path).Contains(r.id) {
		// Sender-side loop filtering makes this unreachable in this engine,
		// but a real peer could send such a route; BGP discards it.
		return
	}
	r.applyUpdate(slot, pm.pid, pm.withdraw, pm.path, pm.cause)
	r.reconcile(pm.pid, slot, pm.cause)
}

// applyUpdate folds one update (received from the peer in slot, or
// synthesized by a session failure) into the RIB-IN entry and its damping
// state.
func (r *Router) applyUpdate(slot, pid int32, withdraw bool, path pathID, cause rcn.Cause) {
	n := r.net
	now := n.kernel.Now()
	from := r.peers[slot]
	if h := n.debugHooks.OnUpdate; h != nil {
		h(now, r.id, from, n.prefixes[pid], withdraw, n.paths.path(path), cause)
	}
	e := r.ensureRibIn(slot, pid)

	present := e.path != 0
	attrsDiffer := !withdraw && path != e.path
	kind := damping.Classify(withdraw, present, e.everPresent, attrsDiffer)

	if r.damp != nil {
		charge := true
		chargeKind := kind
		if n.cfg.SelectiveDamping && !withdraw && present && n.paths.hops(path) > n.paths.hops(e.path) {
			// Selective damping (Mao et al.): an announcement whose route is
			// worse than the peer's previous one is judged to be path
			// exploration and does not charge the penalty. The heuristic is
			// deliberately imperfect — withdrawals, equal-length reroutes
			// and the eventual best-path re-announcements still charge, and
			// route-reuse updates are indistinguishable from fresh flaps —
			// which is exactly the gap the paper's Section 6 points out.
			charge = false
		}
		if r.net.cfg.EnableRCN {
			charge = r.net.history[r.base+slot].Witness(cause)
			if charge && !cause.IsZero() {
				// RCN-enhanced damping penalizes the *flap itself*, not the
				// perceived result of the flap (Section 7): a link-down root
				// cause charges the withdrawal penalty and a link-up cause
				// the re-announcement penalty, regardless of how the update
				// happens to be classified locally (an exploration update
				// may surface as an attribute change). This makes every
				// router's penalty mirror the origin-adjacent router's, so
				// suppression follows the intended single-router behaviour.
				if cause.Status == rcn.LinkDown {
					chargeKind = damping.KindWithdrawal
				} else {
					chargeKind = damping.KindReannouncement
				}
			}
		}
		inc, became := e.damp.Update(r.damp, now, chargeKind, charge)
		if h := r.net.hooks.OnPenalty; h != nil && inc != 0 {
			h(now, r.id, from, r.net.prefixes[pid], e.damp.Penalty(r.damp, now))
		}
		if became {
			if h := r.net.hooks.OnSuppress; h != nil {
				h(now, r.id, from, r.net.prefixes[pid], true)
			}
		}
		if e.damp.Suppressed() {
			// (Re-)arm the reuse timer for the latest penalty value;
			// charges while suppressed push the reuse instant later (the
			// timer interaction at the heart of the paper).
			if reuseIn := e.damp.ReuseIn(r.damp, now); reuseIn > 0 {
				r.armReuse(e, slot, pid, now+reuseIn)
			}
		}
	}

	if withdraw {
		e.path = 0
	} else {
		e.path = path
		e.everPresent = true
	}
	r.net.setCause(r.net.inCause, r.base+slot, pid, cause)
}

// linkCause stamps a session status change with a root cause when RCN is on
// (the detecting node names the link, as in Section 6.1).
func (r *Router) linkCause(slot int32, peer RouterID, status rcn.Status) rcn.Cause {
	if !r.net.cfg.EnableRCN {
		return rcn.Cause{}
	}
	return r.net.linkSeq[r.base+slot].Next(int(r.id), int(peer), status)
}

// peerDown handles the local side of a failed link: the session's RIB-OUT
// state is discarded and every route learned from the peer is withdrawn
// (charging damping — a session flap is a route flap from this router's
// point of view).
func (r *Router) peerDown(peer RouterID) {
	slot := r.slotOf(peer)
	cause := r.linkCause(slot, peer, rcn.LinkDown)
	for _, pid := range r.net.prefixOrder {
		if out := r.ribOutAt(slot, pid); out != nil {
			out.advertised = 0
			r.dropPending(out)
			out.mrai = sim.Mark{}
		}
	}
	for _, pid := range r.net.prefixOrder {
		if r.ribInAt(slot, pid) != nil {
			r.applyUpdate(slot, pid, true, 0, cause)
			r.reconcile(pid, slot, cause)
		}
	}
}

// peerUp handles the local side of a restored link: a fresh session starts
// with an empty adj-RIB-out, so the router re-advertises its current best
// routes per the export policy. Routes from the peer arrive as the peer does
// the same.
func (r *Router) peerUp(peer RouterID) {
	slot := r.slotOf(peer)
	cause := r.linkCause(slot, peer, rcn.LinkUp)
	for _, pid := range r.net.prefixOrder {
		if r.hasLocalState(pid) {
			var adv pathID
			r.syncPeer(slot, peer, pid, cause, &adv)
		}
	}
}

// hasLocalState reports whether the router holds Local-RIB state for prefix
// id pid or has ever originated it.
func (r *Router) hasLocalState(pid int32) bool {
	return r.local(pid).seen || r.origin(pid).ever
}

// armReuse replaces the entry's reuse timer with one firing at the given
// virtual instant.
func (r *Router) armReuse(e *ribInEntry, slot, pid int32, at time.Duration) {
	k := r.net.kernel
	k.Cancel(e.reuseTimer)
	e.reuseTimer = k.AtKind(at, r.net.reuseKind, packDirPrefix(r.base+slot, pid))
}

// reuseExpired handles a reuse-timer firing: lift suppression if the penalty
// has decayed enough, then re-run the decision process. Whether that changes
// the Local-RIB is the paper's noisy/silent distinction (Section 4.2).
func (r *Router) reuseExpired(slot, pid int32) {
	e := r.ribInAt(slot, pid)
	if e == nil || r.damp == nil || !e.damp.Suppressed() {
		return
	}
	now := r.net.kernel.Now()
	if !e.damp.TryReuse(r.damp, now) {
		// The penalty was re-charged after this timer was armed (and the
		// rearm raced with delivery); try again at the new reuse instant.
		r.armReuse(e, slot, pid, now+e.damp.ReuseIn(r.damp, now))
		return
	}
	peer := r.peers[slot]
	if h := r.net.hooks.OnSuppress; h != nil {
		h(now, r.id, peer, r.net.prefixes[pid], false)
	}
	noisy := r.reconcile(pid, slot, r.net.causeAt(r.net.inCause, r.base+slot, pid))
	if h := r.net.hooks.OnReuse; h != nil {
		h(now, r.id, peer, r.net.prefixes[pid], noisy)
	}
}

// prefClass ranks where a route was learned under the active policy; larger
// is preferred. Under shortest-path policy all peers rank equally.
func (r *Router) prefClass(peer RouterID) int {
	if r.net.cfg.Policy != NoValley {
		return 2
	}
	switch r.net.graph.Relationship(r.id, peer) {
	case topology.RelCustomer:
		return 3
	case topology.RelProvider:
		return 1
	default: // peers and unannotated links
		return 2
	}
}

// decide runs the BGP decision process for a prefix id over the usable
// RIB-IN entries: policy preference, then shortest AS path, then lowest peer
// ID. Suppressed entries are excluded (the damping rule: a suppressed route
// does not enter the Local-RIB).
func (r *Router) decide(pid int32) localEntry {
	if r.isOriginated(pid) {
		return localEntry{hasRoute: true, bestPeer: selfPeer}
	}
	var best localEntry
	var bestRank rank
	row := r.net.ribIdx(r.base, pid)
	ins := r.net.ribIn[row : row+len(r.peers)]
	for s, p := range r.peers {
		e := &ins[s]
		if !e.usable() {
			continue
		}
		if rk := r.rankOf(p, e.path); !best.hasRoute || rk.above(bestRank) {
			best = localEntry{hasRoute: true, bestPeer: p, bestPath: e.path}
			bestRank = rk
		}
	}
	return best
}

// rank is what the decision process orders routes by: policy preference,
// then shortest AS path, then lowest peer ID.
type rank struct {
	class, hops int
	peer        RouterID
}

// above reports whether a route ranked a is preferred to one ranked b.
func (a rank) above(b rank) bool {
	switch {
	case a.class != b.class:
		return a.class > b.class
	case a.hops != b.hops:
		return a.hops < b.hops
	}
	return a.peer < b.peer
}

// rankOf ranks the route path learned from peer.
func (r *Router) rankOf(peer RouterID, path pathID) rank {
	return rank{class: r.prefClass(peer), hops: r.net.paths.hops(path), peer: peer}
}

// noSlot is reconcile's slot for a change no RIB-IN entry made: the
// router's own origination.
const noSlot = int32(-1)

// reconcile brings the Local-RIB up to date after the RIB-IN entry for (slot,
// prefix id) changed, or after an origination change (noSlot), and, if the
// Local-RIB changed, synchronizes every RIB-OUT (sending or scheduling
// updates stamped with the triggering root cause). It reports whether the
// Local-RIB changed.
func (r *Router) reconcile(pid, slot int32, trigger rcn.Cause) bool {
	l := r.local(pid)
	best := r.reselect(l, pid, slot)
	l.stale = false
	if best.equal(*l) {
		return false
	}
	best.seen = true
	*l = best
	var adv pathID // built once, at the first peer the policy exports to
	for s, q := range r.peers {
		r.syncPeer(int32(s), q, pid, trigger, &adv)
	}
	return true
}

// reselect returns what the decision process selects for prefix id pid now
// that the RIB-IN entry in slot changed, given that l was its selection
// before and nothing else changed since. A route that was not the best and is
// no better than it leaves l as it is, and a better one wins: one comparison
// either way. So does the best route staying as good. Only when the best
// route worsens or leaves, for an origination change or a locally originated
// prefix, and for a stale l, does the full decision process run.
func (r *Router) reselect(l *localEntry, pid, slot int32) localEntry {
	if slot == noSlot || l.stale || r.isOriginated(pid) {
		return r.decide(pid)
	}
	e := r.ribIn(slot, pid)
	peer := r.peers[slot]
	cand := localEntry{hasRoute: true, bestPeer: peer, bestPath: e.path}
	switch {
	case l.hasRoute && l.bestPeer == peer:
		if e.usable() && r.net.paths.hops(e.path) <= r.net.paths.hops(l.bestPath) {
			return cand
		}
		return r.decide(pid)
	case e.usable() && (!l.hasRoute || r.rankOf(peer, e.path).above(r.rankOf(l.bestPeer, l.bestPath))):
		return cand
	}
	return *l
}

// exportPath computes what (if anything) the router should advertise to peer
// q for a prefix id under the active policy: the id of the best path with
// the router prepended, or 0 when filtered. adv caches the prepended path
// across the peers of one decision: it is built on first use (when *adv is
// 0) and reused after.
func (r *Router) exportPath(q RouterID, pid int32, adv *pathID) pathID {
	l := r.local(pid)
	if !l.hasRoute {
		return 0
	}
	if r.net.cfg.Policy == NoValley && l.bestPeer != selfPeer {
		// A route learned from a peer or a provider is exported only to
		// customers (no-valley: never provide transit between two
		// non-customers).
		if r.net.graph.Relationship(r.id, l.bestPeer) != topology.RelCustomer &&
			r.net.graph.Relationship(r.id, q) != topology.RelCustomer {
			return 0
		}
	}
	if *adv == 0 {
		*adv = r.net.paths.prepend(r.id, l.bestPath)
	}
	if r.net.paths.path(*adv).Contains(q) {
		// Sender-side loop filter; also covers "don't echo a route back to
		// the peer it was learned from".
		return 0
	}
	return *adv
}

// syncPeer brings the RIB-OUT for (q, prefix id) in line with the current
// export decision. Withdrawals leave immediately; announcements respect the
// MRAI interval (pending until it ends). adv is exportPath's cache.
func (r *Router) syncPeer(slot int32, q RouterID, pid int32, trigger rcn.Cause, adv *pathID) {
	n := r.net
	if !n.sessionUpEdge(n.adjEdge[r.base+slot], r.id, q) { // SessionUp, by slot
		// No established session: nothing to synchronize. RIB-OUT state for
		// the session was discarded when it went down, and recording a new
		// advertisement here would desynchronize the RIBs — the message
		// would be lost in send, and the recovery re-sync (peerUp) would
		// then skip the route as already advertised. The recovery path
		// re-syncs from scratch instead.
		return
	}
	out := r.ensureRibOut(slot, pid)
	desired := r.exportPath(q, pid, adv)
	switch {
	case desired == 0 && out.advertised == 0:
		// Nothing advertised, nothing to advertise; drop any pending update.
		r.dropPending(out)
	case desired == 0:
		// Withdrawals are not rate limited.
		out.advertised = 0
		r.dropPending(out)
		n.send(r.id, slot, pendingMsg{pid: pid, withdraw: true, cause: trigger})
	case desired == out.advertised:
		r.dropPending(out)
	case n.kernel.Ahead(out.mrai):
		// The MRAI interval is running: hold the announcement, and push the
		// interval's expiry if nothing waited for it yet.
		if !out.pending {
			out.pending = true
			out.expiry = n.kernel.AtMark(out.mrai, n.mraiKind, packDirPrefix(r.base+slot, pid))
		}
		out.pendingPath = desired
		n.setCause(n.outCause, r.base+slot, pid, trigger)
	default:
		r.sendAnnouncement(slot, pid, out, desired, trigger)
	}
}

// dropPending discards the entry's held announcement, if any, and the expiry
// pushed for it. The MRAI interval itself keeps running.
func (r *Router) dropPending(out *ribOutEntry) {
	if out.pending {
		out.pending = false
		r.net.kernel.Cancel(out.expiry)
	}
}

// sendAnnouncement transmits an announcement and starts an MRAI interval,
// reserving its end in the event order (no event is queued until an
// announcement waits for it). The caller holds no announcement, or is its
// expiry.
func (r *Router) sendAnnouncement(slot, pid int32, out *ribOutEntry, path pathID, cause rcn.Cause) {
	out.advertised = path
	out.pending = false
	r.net.send(r.id, slot, pendingMsg{pid: pid, path: path, cause: cause})
	if mrai := r.net.cfg.MRAI; mrai > 0 {
		out.mrai = r.net.kernel.Reserve(r.net.kernel.Now() + r.mraiInterval(mrai))
	}
}

// mraiInterval draws the length of one MRAI interval: RFC 4271 §9.2.1.1
// jitter multiplies mrai by a uniform factor in [0.75, 1.0), which is what
// desynchronizes path exploration across routers. The conversion rounds the
// product on its own, so no target fuses it into the sum.
func (r *Router) mraiInterval(mrai time.Duration) time.Duration {
	return time.Duration(float64(mrai) * (0.75 + float64(0.25*r.rng.Float64())))
}

// mraiExpired releases the pending announcement its expiry was pushed for.
func (r *Router) mraiExpired(slot, pid int32) {
	out := r.ribOutAt(slot, pid)
	if out == nil || !out.pending {
		return
	}
	r.sendAnnouncement(slot, pid, out, out.pendingPath, r.net.causeAt(r.net.outCause, r.base+slot, pid))
}

// resetDamping clears damping penalties, suppression flags, reuse timers and
// RCN histories, leaving routes untouched. See Network.ResetDamping.
func (r *Router) resetDamping() {
	n := r.net
	for s := range r.peers {
		for pid := range n.prefixes {
			e := r.ribIn(int32(s), int32(pid))
			if !e.seen {
				continue
			}
			if e.damp.Suppressed() {
				// The route becomes usable with no reconcile to see it.
				r.local(int32(pid)).stale = true
			}
			e.damp.Reset()
			n.kernel.Cancel(e.reuseTimer)
			e.reuseTimer = sim.Timer{}
		}
		if n.history != nil {
			n.history[r.base+int32(s)] = n.newHistory()
		}
	}
}

// crash discards the router's entire protocol state — RIB-IN, RIB-OUT,
// Local-RIB, damping state, RCN histories — and cancels every pending timer.
// Only the origin set and the RCN sequencers survive: the former models
// static configuration that outlives a reboot, the latter keeps root-cause
// sequence numbers monotonic across the restart. Every suppressed state it
// discards fires OnSuppress(false), so observers counting suppress/unsuppress
// events stay balanced with DampedLinkCount.
func (r *Router) crash() {
	n := r.net
	now := n.kernel.Now()
	for s, peer := range r.peers {
		for pid := range n.prefixes {
			e := r.ribIn(int32(s), int32(pid))
			n.kernel.Cancel(e.reuseTimer)
			suppressed := e.seen && e.damp.Suppressed()
			// Clear first: a hook reading DampedLinkCount sees the post-state.
			*e = ribInEntry{}
			n.setCause(n.inCause, r.base+int32(s), int32(pid), rcn.Cause{})
			if h := n.hooks.OnSuppress; h != nil && suppressed {
				h(now, r.id, peer, n.prefixes[pid], false)
			}
		}
		for pid := range n.prefixes {
			out := r.ribOut(int32(s), int32(pid))
			n.kernel.Cancel(out.expiry)
			*out = ribOutEntry{}
			n.setCause(n.outCause, r.base+int32(s), int32(pid), rcn.Cause{})
		}
		if n.history != nil {
			n.history[r.base+int32(s)] = n.newHistory()
		}
	}
	for pid := range n.prefixes {
		*r.local(int32(pid)) = localEntry{}
	}
}

// restart rebuilds the router after a crash: it re-runs origination for its
// configured prefixes, announcing them to whichever peers it currently has
// sessions with. Routes from peers arrive as the peers re-advertise
// (Network.RestartRouter drives that side).
func (r *Router) restart() {
	for _, pid := range r.net.prefixOrder {
		if r.isOriginated(pid) {
			r.reconcile(pid, noSlot, r.originationCause(pid, rcn.LinkUp))
		}
	}
}

// checkLocalRIB verifies the stored Local-RIB entry for prefix id pid equals
// a fresh run of the decision process.
func (r *Router) checkLocalRIB(pid int32) error {
	want := r.decide(pid)
	got := r.localAt(pid)
	if !got.equal(want) {
		return fmt.Errorf("bgp: router %d prefix %s: Local-RIB (peer %d, path [%s]) != decision (peer %d, path [%s])",
			r.id, r.net.prefixes[pid], got.bestPeer, r.net.paths.path(got.bestPath), want.bestPeer, r.net.paths.path(want.bestPath))
	}
	return nil
}
