package bgp

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"rfd/damping"
	"rfd/internal/xrand"
	"rfd/rcn"
	"rfd/sim"
	"rfd/topology"
)

// Hooks are optional observation points the metrics layer subscribes to.
// Nil fields are simply not called. Hooks must not mutate the network.
type Hooks struct {
	// OnDeliver fires when an update message is delivered to its receiver,
	// before the receiver processes it.
	OnDeliver func(at time.Duration, msg Message)
	// OnSuppress fires when a (router, peer, prefix) damping state flips
	// suppression on (suppressed=true) or off (false).
	OnSuppress func(at time.Duration, router, peer RouterID, prefix Prefix, suppressed bool)
	// OnReuse fires when a reuse timer successfully lifts suppression.
	// noisy reports whether the reuse changed the router's best path (and
	// therefore triggered updates) — the paper's noisy/silent distinction.
	OnReuse func(at time.Duration, router, peer RouterID, prefix Prefix, noisy bool)
	// OnPenalty fires after every damping penalty update with the new value.
	OnPenalty func(at time.Duration, router, peer RouterID, prefix Prefix, penalty float64)
}

// LinkImpairment decides the fate of individual messages on otherwise
// healthy links: loss (drop=true) and extra delivery delay (jitter). The
// engine consults it exactly once per message at send time, in deterministic
// order, so an implementation driven by a seeded RNG keeps runs exactly
// reproducible. extraDelay must be non-negative. Implementations must not
// mutate the network. Package faults provides the standard implementation.
type LinkImpairment interface {
	Impair(at time.Duration, from, to RouterID) (drop bool, extraDelay time.Duration)
}

// pendingMsg is an in-flight update parked in the network's slab between
// send and deliver: its prefix and path as this network's ids, the session
// generation it was sent on, and the receiver-side directed slot (To->From)
// of its link, which names both routers, so delivery looks nothing up. It
// holds no pointer. Message is its public form, built only for observers.
type pendingMsg struct {
	dir      int32
	pid      int32
	path     pathID
	withdraw bool
	gen      uint64
	cause    rcn.Cause
}

// deliverHandler adapts the kernel's typed-event interface to message
// delivery: the event arg is the message's slab index, so scheduling a
// delivery allocates neither a closure nor a boxed payload.
type deliverHandler struct{ n *Network }

func (h *deliverHandler) HandleEvent(arg uint64) {
	n := h.n
	idx := int32(arg)
	pm := n.msgSlab[idx]
	n.msgFree = append(n.msgFree, idx)
	n.deliver(&pm)
}

// Network wires routers built from a topology onto a simulation kernel.
//
// Link, session and RIB state live in flat arrays indexed by edge, directed
// slot or router over a compressed sparse row (CSR) view of the topology, so
// a network's memory is O(V+E) per prefix — which is what makes
// internet-scale graphs (and the sharded engine's per-shard replicas of the
// link state) affordable, and a fork a few slice copies. The per-message hot
// path performs no lookups and no allocation: senders pass their peer slot,
// in-flight messages carry the receiver's directed slot, and they are parked
// in a freelist-backed slab whose index the delivery event carries.
type Network struct {
	kernel *sim.Kernel
	graph  *topology.Graph
	cfg    Config
	nn     int // number of nodes
	// routers is the router slab, one value per router id. A shard network
	// builds every router but runs only those its shard owns: router and
	// Router return nil for the rest.
	routers []Router

	// CSR adjacency, fixed at construction and shared by forks: node v's
	// neighbors are adjNbr[adjStart[v]:adjStart[v+1]], sorted ascending.
	// Router.peers is that row, so a peer slot is the offset into it. A
	// directed link (from,to) is identified by its slot in adjNbr; adjEdge
	// maps the slot to the undirected edge id (the index into graph.Edges()
	// order), adjRev to the slot of the reverse link (to,from) and adjOwner
	// to from, the router whose row holds the slot.
	adjStart []int32
	adjNbr   []RouterID
	adjEdge  []int32
	adjRev   []int32
	adjOwner []RouterID

	// linkDelay holds the symmetric propagation delay per undirected edge,
	// fixed at construction and shared by forks.
	linkDelay []time.Duration
	// lastArrival enforces per-direction FIFO delivery: a message never
	// overtakes an earlier one on the same directed link. Indexed by
	// directed slot; zero means no arrival constraint (reset when the
	// session is severed — post-recovery traffic must not be serialized
	// behind the arrival times of messages that were lost).
	lastArrival []time.Duration
	// downLinks marks failed links, indexed by undirected edge id.
	// Messages sent or in flight on a failed link are lost, as with a
	// broken TCP session.
	downLinks []bool
	// sessionGen is a per-edge session generation. Every session-severing
	// fault — link failure, session reset, router crash — bumps it;
	// deliveries stamped with an older generation are dropped, so messages
	// in flight when a session dies never arrive, even when the session is
	// re-established before their scheduled arrival.
	sessionGen []uint64
	// downRouters marks crashed routers. A crashed router holds no sessions:
	// nothing is sent to or from it until RestartRouter.
	downRouters []bool
	// owner maps each router id to its owning shard; nil when this network
	// owns every router (the sequential engine). A shard network runs only
	// the routers it owns and hands messages bound for remote owners to
	// remoteSend instead of scheduling a local delivery. Link and session
	// state is replicated per shard; a shard network takes no faults, so
	// the replicas never change after construction.
	owner   []int32
	shardID int32
	// remoteSend parks a cross-shard message — already FIFO-stamped with
	// its arrival time and session generation — in the ensemble's outbox
	// for injection at the next epoch barrier. Non-nil only on shard
	// networks.
	remoteSend func(at time.Duration, pm pendingMsg)
	// impair, when non-nil, is consulted once per message sent on a healthy
	// session (loss and jitter injection).
	impair LinkImpairment
	// pendingDeliveries counts scheduled bgp.deliver events not yet fired
	// (including ones that will be dropped on arrival).
	pendingDeliveries int

	// Every router's mutable protocol state lives in flat network-wide
	// slices, so a fork copies a handful of arrays instead of walking
	// routers. RIB-IN and RIB-OUT are indexed by (prefix id, directed slot)
	// (ribIdx), Local-RIB and origination state by (prefix id, router id)
	// (locIdx); each new prefix id appends one row to each (prefixID). A
	// shard network's rows for routers it does not own stay zero.
	ribIn  []ribInEntry
	ribOut []ribOutEntry
	local  []localEntry
	orig   []origin
	// RCN state, nil unless cfg.EnableRCN (without it every root cause is
	// zero): the root cause of every RIB-IN route and of every pending
	// RIB-OUT announcement, by ribIdx; the root-cause history and the
	// link-status sequencer of every directed slot; and the origination
	// sequencer of every (prefix id, router id).
	inCause  []rcn.Cause
	outCause []rcn.Cause
	history  []*rcn.History
	linkSeq  []rcn.Sequencer
	origSeq  []rcn.Sequencer
	// mraiH and reuseH receive every router's MRAI expiries and reuse
	// timers; the event arg names the directed slot and prefix id.
	mraiH  mraiHandler
	reuseH reuseHandler
	// deliverKind, mraiKind and reuseKind are the kernel's event kinds of
	// deliverH, mraiH and reuseH, looked up once at construction; a fork's
	// kernel copies the kind table, so they hold there too.
	deliverKind, mraiKind, reuseKind sim.Kind

	// paths numbers every AS path the engine handles; prefixIDs/prefixes
	// map prefixes to the dense ids the RIBs are indexed by, and
	// prefixOrder lists the ids in ascending prefix order, the order every
	// prefix walk takes.
	paths       *pathTable
	prefixIDs   map[Prefix]int32
	prefixes    []Prefix
	prefixOrder []int32

	// msgSlab parks in-flight messages; msgFree is its freelist.
	msgSlab  []pendingMsg
	msgFree  []int32
	deliverH deliverHandler

	hooks Hooks
	// debugHooks are the verification observation points (package check);
	// separate from hooks so a checker never displaces the metrics layer.
	debugHooks DebugHooks

	// delivered counts update messages delivered since the last ResetCounters.
	delivered uint64
	// dropped counts messages lost to link failures, session churn, router
	// crashes or impairment since the last ResetCounters.
	dropped uint64
	// lastDelivery is the virtual time of the most recent delivery.
	lastDelivery time.Duration
}

// NewNetwork builds one router per topology node and connects them along the
// topology's edges. Link propagation delays are drawn deterministically from
// cfg.Seed.
func NewNetwork(k *sim.Kernel, g *topology.Graph, cfg Config) (*Network, error) {
	return newNetwork(k, g, cfg, nil, 0)
}

// newNetwork builds either the full sequential network (owner nil) or one
// shard of a sharded ensemble: with a non-nil owner map, only routers owned
// by shardID are instantiated. The construction-time RNG sequence — link
// delay draws in edge order, then one Split per router id — is replayed in
// full on every shard regardless of ownership, so each instantiated router
// receives exactly the stream it would have in the sequential engine. That
// replay is what makes per-seed traces byte-identical across engines.
func newNetwork(k *sim.Kernel, g *topology.Graph, cfg Config, owner []int32, shardID int32) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Policy == NoValley && !g.Annotated() {
		return nil, fmt.Errorf("bgp: no-valley policy requires a relationship-annotated topology")
	}
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("bgp: empty topology")
	}
	if cfg.DampingSelect != nil {
		for id := 0; id < g.NumNodes(); id++ {
			if p := cfg.DampingSelect(RouterID(id)); p != nil {
				if err := p.Validate(); err != nil {
					return nil, fmt.Errorf("bgp: router %d damping: %w", id, err)
				}
			}
		}
	}
	nn := g.NumNodes()
	edges := g.Edges()
	n := &Network{
		kernel:      k,
		graph:       g,
		cfg:         cfg,
		nn:          nn,
		linkDelay:   make([]time.Duration, len(edges)),
		lastArrival: make([]time.Duration, 2*len(edges)),
		downLinks:   make([]bool, len(edges)),
		sessionGen:  make([]uint64, len(edges)),
		downRouters: make([]bool, nn),
		owner:       owner,
		shardID:     shardID,
		paths:       newPathTable(),
	}
	n.deliverH = deliverHandler{n: n}
	n.mraiH = mraiHandler{n: n}
	n.reuseH = reuseHandler{n: n}
	n.deliverKind = k.Kind("bgp.deliver", &n.deliverH)
	n.mraiKind = k.Kind("bgp.mrai", &n.mraiH)
	n.reuseKind = k.Kind("bgp.reuse", &n.reuseH)
	k.SetMarks(n.latestMark)
	n.buildCSR(edges)
	rng := xrand.New(cfg.Seed)
	for i := range edges {
		// One symmetric delay per link, drawn in deterministic edge order.
		n.linkDelay[i] = minLinkDelay + time.Duration(rng.Uint64n(uint64(maxLinkDelay-minLinkDelay)))
	}
	n.routers = make([]Router, nn)
	rules := make(map[damping.Params]*damping.Rules) // one per parameter set
	for id := range n.routers {
		var damp *damping.Rules
		if p := cfg.dampingFor(RouterID(id)); p != nil {
			if damp = rules[*p]; damp == nil {
				damp = damping.NewRules(*p)
				rules[*p] = damp
			}
		}
		// Split for every router: unowned routers still consume their slot
		// in the parent stream so owned routers get their sequential streams.
		n.routers[id] = Router{
			id:    RouterID(id),
			net:   n,
			base:  n.adjStart[id],
			peers: n.neighbors(RouterID(id)),
			damp:  damp,
			rng:   *rng.Split(),
		}
	}
	if cfg.EnableRCN {
		n.history = make([]*rcn.History, len(n.adjNbr))
		n.linkSeq = make([]rcn.Sequencer, len(n.adjNbr))
		for id := range n.routers {
			if n.owns(RouterID(id)) {
				for d := n.adjStart[id]; d < n.adjStart[id+1]; d++ {
					n.history[d] = n.newHistory()
				}
			}
		}
	}
	return n, nil
}

// newHistory returns a fresh per-session root-cause history (RCN only): a
// header that grows as causes arrive.
func (n *Network) newHistory() *rcn.History {
	return rcn.NewHistory(rcn.DefaultHistorySize)
}

// owns reports whether this network runs router id: always on the
// sequential engine, only for its own routers on a shard network.
func (n *Network) owns(id RouterID) bool {
	return n.owner == nil || n.owner[id] == n.shardID
}

// router returns the running router id, nil when a shard network does not
// own it. id must be in range.
func (n *Network) router(id RouterID) *Router {
	if !n.owns(id) {
		return nil
	}
	return &n.routers[id]
}

// dirRouter returns the router a directed slot belongs to and the slot's
// offset in its row.
func (n *Network) dirRouter(dir int32) (*Router, int32) {
	r := &n.routers[n.adjOwner[dir]]
	return r, dir - r.base
}

// ribIdx returns the flat RIB-IN/RIB-OUT index of (directed slot, prefix id).
func (n *Network) ribIdx(dir, pid int32) int {
	return int(pid)*len(n.adjNbr) + int(dir)
}

// causeAt returns the root cause causes (inCause or outCause) holds for
// (directed slot, prefix id): zero when RCN is off.
func (n *Network) causeAt(causes []rcn.Cause, dir, pid int32) rcn.Cause {
	if causes == nil {
		return rcn.Cause{}
	}
	return causes[n.ribIdx(dir, pid)]
}

// setCause stores c in causes (inCause or outCause) for (directed slot,
// prefix id); a no-op when RCN is off, where every cause is zero.
func (n *Network) setCause(causes []rcn.Cause, dir, pid int32, c rcn.Cause) {
	if causes != nil {
		causes[n.ribIdx(dir, pid)] = c
	}
}

// locIdx returns the flat Local-RIB/origination index of (router, prefix id).
func (n *Network) locIdx(id RouterID, pid int32) int {
	return int(pid)*n.nn + int(id)
}

// buildCSR fills the adjacency arrays from the edge list: counting sort into
// per-node rows, then an in-row sort by neighbor id carrying edge ids along,
// then the reverse slot and the owner of every directed link.
func (n *Network) buildCSR(edges []topology.Edge) {
	n.adjStart = make([]int32, n.nn+1)
	for _, e := range edges {
		n.adjStart[e.A+1]++
		n.adjStart[e.B+1]++
	}
	for v := 1; v <= n.nn; v++ {
		n.adjStart[v] += n.adjStart[v-1]
	}
	n.adjNbr = make([]RouterID, 2*len(edges))
	n.adjEdge = make([]int32, 2*len(edges))
	fill := make([]int32, n.nn)
	for i, e := range edges {
		sa := n.adjStart[e.A] + fill[e.A]
		fill[e.A]++
		n.adjNbr[sa], n.adjEdge[sa] = RouterID(e.B), int32(i)
		sb := n.adjStart[e.B] + fill[e.B]
		fill[e.B]++
		n.adjNbr[sb], n.adjEdge[sb] = RouterID(e.A), int32(i)
	}
	for v := 0; v < n.nn; v++ {
		row := adjRow{
			nbr:  n.adjNbr[n.adjStart[v]:n.adjStart[v+1]],
			edge: n.adjEdge[n.adjStart[v]:n.adjStart[v+1]],
		}
		sort.Sort(row)
	}
	n.adjRev = make([]int32, 2*len(edges))
	n.adjOwner = make([]RouterID, 2*len(edges))
	for v := 0; v < n.nn; v++ {
		for d := n.adjStart[v]; d < n.adjStart[v+1]; d++ {
			n.adjRev[d] = n.dirSlot(n.adjNbr[d], RouterID(v))
			n.adjOwner[d] = RouterID(v)
		}
	}
}

// adjRow sorts one CSR row by neighbor id, keeping edge ids aligned.
type adjRow struct {
	nbr  []RouterID
	edge []int32
}

func (r adjRow) Len() int           { return len(r.nbr) }
func (r adjRow) Less(i, j int) bool { return r.nbr[i] < r.nbr[j] }
func (r adjRow) Swap(i, j int) {
	r.nbr[i], r.nbr[j] = r.nbr[j], r.nbr[i]
	r.edge[i], r.edge[j] = r.edge[j], r.edge[i]
}

// dirSlot returns the directed slot of link from->to (the index into adjNbr,
// lastArrival), or -1 when no such link exists. It binary-searches the
// node's CSR row, as Router.slotOf does; the update path never calls either,
// since it carries its slots.
func (n *Network) dirSlot(from, to RouterID) int32 {
	if !n.inRange(from) {
		return -1
	}
	if s := rowSlot(n.neighbors(from), to); s >= 0 {
		return n.adjStart[from] + s
	}
	return -1
}

// rowSlot returns id's offset in the ascending CSR row, -1 when absent (also
// for self and out-of-range ids, which no row holds).
func rowSlot(row []RouterID, id RouterID) int32 {
	if i, ok := slices.BinarySearch(row, id); ok {
		return int32(i)
	}
	return -1
}

// edgeOf returns the undirected edge id of link a-b, or -1 when absent.
func (n *Network) edgeOf(a, b RouterID) int32 {
	if s := n.dirSlot(a, b); s >= 0 {
		return n.adjEdge[s]
	}
	return -1
}

// inRange reports whether id is a valid router id.
func (n *Network) inRange(id RouterID) bool {
	return id >= 0 && int(id) < n.nn
}

// hasLink reports whether a directed link exists (false for out-of-range
// ids).
func (n *Network) hasLink(a, b RouterID) bool {
	return n.dirSlot(a, b) >= 0
}

// Kernel returns the simulation kernel the network runs on.
func (n *Network) Kernel() *sim.Kernel { return n.kernel }

// Config returns the network's configuration.
func (n *Network) Config() Config { return n.cfg }

// Graph returns the underlying topology.
func (n *Network) Graph() *topology.Graph { return n.graph }

// NumRouters returns the number of routers.
func (n *Network) NumRouters() int { return len(n.routers) }

// Router returns the router with the given ID, or nil if out of range.
func (n *Network) Router(id RouterID) *Router {
	if !n.inRange(id) {
		return nil
	}
	return n.router(id)
}

// SetHooks installs observation hooks (replacing any previous ones).
func (n *Network) SetHooks(h Hooks) { n.hooks = h }

// SetImpairment installs (or, with nil, removes) the message impairment
// model consulted on every send. Install it only while the network is
// quiescent: changing the model mid-flight does not affect messages already
// scheduled, but swapping RNG-backed models at arbitrary points makes runs
// hard to reason about.
func (n *Network) SetImpairment(imp LinkImpairment) { n.impair = imp }

// Delivered returns the number of update messages delivered since the last
// ResetCounters call.
func (n *Network) Delivered() uint64 { return n.delivered }

// Dropped returns the number of messages lost — to link failures, session
// churn, router crashes or impairment — since the last ResetCounters call.
func (n *Network) Dropped() uint64 { return n.dropped }

// LastDelivery returns the virtual time of the most recent message delivery.
func (n *Network) LastDelivery() time.Duration { return n.lastDelivery }

// ResetCounters zeroes the delivered/dropped counters and last-delivery
// time. Experiments call it after warm-up so metrics cover only the flap
// phase.
func (n *Network) ResetCounters() {
	n.delivered = 0
	n.dropped = 0
	n.lastDelivery = 0
}

// Quiescent reports whether no bgp.deliver events are pending: nothing is in
// flight, so no router can receive input before the next timer (MRAI, reuse)
// or external fault fires. Consistency checks are meaningful only then.
func (n *Network) Quiescent() bool { return n.pendingDeliveries == 0 }

// PendingDeliveries returns the number of scheduled bgp.deliver events that
// have not yet fired (messages in flight, including ones that will be
// dropped on arrival because their session died).
func (n *Network) PendingDeliveries() int { return n.pendingDeliveries }

// PendingAnnouncements returns the number of (router, peer, prefix)
// announcements currently held back by MRAI timers. Together with Quiescent
// it tells the convergence watchdog whether the protocol can still act
// before the next damping-reuse instant without further external input.
func (n *Network) PendingAnnouncements() int {
	total := 0
	for i := range n.ribOut {
		if n.ribOut[i].pending {
			total++
		}
	}
	return total
}

// latestMark returns the latest MRAI interval end any RIB-OUT entry holds
// (the zero Mark when none does). It is the kernel's mark source
// (sim.Kernel.SetMarks), asked once per drain: a drain ends where the last
// interval would have, had its expiry been queued.
func (n *Network) latestMark() sim.Mark {
	var latest sim.Mark
	for i := range n.ribOut {
		if m := n.ribOut[i].mrai; m.After(latest) {
			latest = m
		}
	}
	return latest
}

// ResetDamping clears every router's damping state and RCN history. The
// paper's methodology lets the network learn stable routes first and then
// studies flaps against clean damping state; experiments call this at the
// end of warm-up.
func (n *Network) ResetDamping() {
	for id := range n.routers {
		if r := n.router(RouterID(id)); r != nil {
			r.resetDamping()
		}
	}
}

// DampedLinkCount returns the number of (router, peer, prefix) damping states
// currently suppressed — the paper's "damped link count" (each link can be
// suppressed independently by either end, so the ceiling is twice the number
// of links per prefix; footnote 2).
func (n *Network) DampedLinkCount() int {
	total := 0
	for i := range n.ribIn {
		if e := &n.ribIn[i]; e.seen && e.damp.Suppressed() {
			total++
		}
	}
	return total
}

// SessionUp reports whether a BGP session is currently established between
// a and b: the link exists and is up, and both routers are running.
func (n *Network) SessionUp(a, b RouterID) bool {
	e := n.edgeOf(a, b)
	return e >= 0 && n.sessionUpEdge(e, a, b)
}

// sessionUpEdge is SessionUp for callers that already resolved the edge id.
func (n *Network) sessionUpEdge(edge int32, a, b RouterID) bool {
	return !n.downLinks[edge] && !n.downRouters[a] && !n.downRouters[b]
}

// RouterUp reports whether router id is running (false for out-of-range
// ids).
func (n *Network) RouterUp(id RouterID) bool {
	return n.inRange(id) && !n.downRouters[id]
}

// severSession invalidates messages in flight on the a-b link and clears its
// FIFO serialization state: whatever was in flight is lost with the session,
// and post-recovery traffic must not be serialized behind the arrival times
// of messages that were lost.
func (n *Network) severSession(a, b RouterID) {
	d := n.dirSlot(a, b)
	n.sessionGen[n.adjEdge[d]]++
	n.lastArrival[d] = 0
	n.lastArrival[n.adjRev[d]] = 0
}

// faultable refuses the fault op on a shard network: the sharded engine
// replicates link and session state per shard, and only the sequential
// engine takes faults.
func (n *Network) faultable(op string) error {
	if n.owner != nil {
		return fmt.Errorf("bgp: shard %d of a sharded network takes no %s", n.shardID, op)
	}
	return nil
}

// SetLinkState fails (up=false) or restores (up=true) the link between a
// and b, modelling the paper's flapping [originAS, ispAS] link directly:
//
//   - On failure, messages in flight on the link are lost, both endpoints
//     treat every route learned over it as withdrawn (charging damping as a
//     withdrawal — a session flap is a route flap from the neighbor's
//     perspective), and each endpoint stamps the resulting updates with a
//     fresh LinkDown root cause when RCN is enabled.
//   - On recovery, both endpoints re-advertise their current best routes
//     over the link per the export policy, stamped with a LinkUp cause.
//
// Setting the current state again is a no-op. Unknown links return an
// error, and so does a shard network.
func (n *Network) SetLinkState(a, b RouterID, up bool) error {
	if err := n.faultable("SetLinkState"); err != nil {
		return err
	}
	key := n.edgeOf(a, b)
	if key < 0 {
		return fmt.Errorf("bgp: no link %d-%d", a, b)
	}
	if n.downLinks[key] == !up {
		return nil
	}
	n.downLinks[key] = !up
	if up {
		n.routers[a].peerUp(b)
		n.routers[b].peerUp(a)
	} else {
		n.severSession(a, b)
		n.routers[a].peerDown(b)
		n.routers[b].peerDown(a)
	}
	return nil
}

// ResetSession models a BGP session reset on the a-b link (the TCP
// connection drops and immediately re-establishes): messages in flight are
// lost, both ends flush the session's RIB-IN — treating every route learned
// over it as withdrawn, which charges damping exactly like real session
// churn — and RIB-OUT, then re-advertise their current best routes per the
// export policy. Resetting a session that is not established (link down or
// an endpoint crashed) is a no-op; unknown links and a shard network return
// an error.
func (n *Network) ResetSession(a, b RouterID) error {
	if err := n.faultable("ResetSession"); err != nil {
		return err
	}
	if !n.hasLink(a, b) {
		return fmt.Errorf("bgp: no link %d-%d", a, b)
	}
	if !n.SessionUp(a, b) {
		return nil
	}
	n.severSession(a, b)
	ra, rb := &n.routers[a], &n.routers[b]
	ra.peerDown(b)
	rb.peerDown(a)
	ra.peerUp(b)
	rb.peerUp(a)
	return nil
}

// CrashRouter fails router id: every session it holds drops (peers withdraw
// the routes learned from it, charging damping), messages in flight to and
// from it are lost, and its entire protocol state — RIB-IN, Local-RIB,
// RIB-OUT, damping state, pending timers — is discarded. Only the origin
// set survives, modelling static configuration that outlives a reboot.
// Crashing a crashed router is a no-op; out-of-range ids and a shard
// network return an error.
func (n *Network) CrashRouter(id RouterID) error {
	if err := n.faultable("CrashRouter"); err != nil {
		return err
	}
	if !n.inRange(id) {
		return fmt.Errorf("bgp: no router %d", id)
	}
	if n.downRouters[id] {
		return nil
	}
	// Mark the router dead and sever its sessions first, so nothing the
	// peers do below can reach it.
	n.downRouters[id] = true
	for _, q := range n.neighbors(id) {
		n.severSession(id, q)
	}
	n.routers[id].crash()
	for i, q := range n.neighbors(id) {
		if n.downLinks[n.adjEdge[int(n.adjStart[id])+i]] || n.downRouters[q] {
			// No session was established, so the peer has nothing to
			// withdraw.
			continue
		}
		n.routers[q].peerDown(id)
	}
	return nil
}

// RestartRouter boots a crashed router: it comes back with empty RIBs,
// re-originates its configured origin set, and re-establishes every session
// whose link is up — both ends re-advertise per the export policy, as after
// a link recovery. Restarting a running router is a no-op; out-of-range ids
// and a shard network return an error.
func (n *Network) RestartRouter(id RouterID) error {
	if err := n.faultable("RestartRouter"); err != nil {
		return err
	}
	if !n.inRange(id) {
		return fmt.Errorf("bgp: no router %d", id)
	}
	if !n.downRouters[id] {
		return nil
	}
	n.downRouters[id] = false
	n.routers[id].restart()
	for _, q := range n.neighbors(id) {
		if n.SessionUp(id, q) {
			n.routers[q].peerUp(id)
		}
	}
	return nil
}

// neighbors returns id's CSR row: its neighbors in ascending id order. A
// router's peers slice is this row.
func (n *Network) neighbors(id RouterID) []RouterID {
	return n.adjNbr[n.adjStart[id]:n.adjStart[id+1]]
}

// allocMsg parks an in-flight message in the slab and returns its index.
func (n *Network) allocMsg(pm pendingMsg) int32 {
	if k := len(n.msgFree); k > 0 {
		idx := n.msgFree[k-1]
		n.msgFree = n.msgFree[:k-1]
		n.msgSlab[idx] = pm
		return idx
	}
	n.msgSlab = append(n.msgSlab, pm)
	return int32(len(n.msgSlab) - 1)
}

// message returns the public form of an in-flight update.
func (n *Network) message(pm *pendingMsg) Message {
	r, slot := n.dirRouter(pm.dir)
	return Message{
		From:     r.peers[slot],
		To:       r.id,
		Prefix:   n.prefixes[pm.pid],
		Withdraw: pm.withdraw,
		Path:     n.paths.path(pm.path),
		Cause:    pm.cause,
	}
}

// send schedules delivery of the update pm (prefix, path, withdraw flag and
// cause filled in) from router from to the peer in its slot. The message
// leaves after the sender's processing delay and arrives after the link's
// propagation delay plus any impairment jitter; FIFO order per direction is
// enforced so updates never overtake each other within a session. Messages
// sent while no session is established, or dropped by the impairment model,
// are lost.
func (n *Network) send(from RouterID, slot int32, pm pendingMsg) {
	dir := n.adjStart[from] + slot
	to := n.adjNbr[dir]
	edge := n.adjEdge[dir]
	if !n.sessionUpEdge(edge, from, to) {
		return
	}
	pm.dir, pm.gen = n.adjRev[dir], n.sessionGen[edge]
	if n.debugHooks.OnSend != nil {
		n.debugHooks.OnSend(n.kernel.Now(), n.message(&pm))
	}
	var extra time.Duration
	if n.impair != nil {
		drop, jitter := n.impair.Impair(n.kernel.Now(), from, to)
		if drop {
			n.dropped++
			if n.debugHooks.OnDrop != nil {
				n.debugHooks.OnDrop(n.kernel.Now(), n.message(&pm), DropImpairment)
			}
			return
		}
		if jitter < 0 {
			panic(fmt.Sprintf("bgp: negative impairment jitter %v on %d->%d", jitter, from, to))
		}
		extra = jitter
	}
	at := n.kernel.Now() + n.routers[from].procDelay() + n.linkDelay[edge] + extra
	if last := n.lastArrival[dir]; at <= last {
		at = last + time.Nanosecond
	}
	n.lastArrival[dir] = at
	if n.owner != nil && n.owner[to] != n.shardID {
		// The receiver lives on another shard: park the message in the
		// ensemble outbox instead of the local slab. The arrival time is
		// final (FIFO stamp included) — only the sender's owner ever sends
		// on this directed link, so its lastArrival is authoritative.
		n.remoteSend(at, pm)
		return
	}
	n.injectDelivery(at, pm)
}

// injectDelivery schedules delivery of an in-flight message at at. send
// calls it for a local receiver; the sharded engine calls it for a
// cross-shard message at epoch barriers, in the ensemble's canonical (time,
// source shard, sequence) order, where the lookahead guarantees at is never
// in the kernel's past.
func (n *Network) injectDelivery(at time.Duration, pm pendingMsg) {
	n.pendingDeliveries++
	idx := n.allocMsg(pm)
	n.kernel.AtKind(at, n.deliverKind, uint64(uint32(idx)))
}

// deliver counts the message, notifies hooks, and hands it to the receiver.
// Messages whose session died while they were in flight — link failure,
// session reset, or a crash of either endpoint — are lost, even when the
// session has since been re-established (pm.gen identifies the incarnation
// the message was sent on).
func (n *Network) deliver(pm *pendingMsg) {
	n.pendingDeliveries--
	r, slot := n.dirRouter(pm.dir)
	edge := n.adjEdge[pm.dir]
	if n.sessionGen[edge] != pm.gen || !n.sessionUpEdge(edge, r.peers[slot], r.id) {
		n.dropped++
		if n.debugHooks.OnDrop != nil {
			n.debugHooks.OnDrop(n.kernel.Now(), n.message(pm), DropSevered)
		}
		return
	}
	n.delivered++
	n.lastDelivery = n.kernel.Now()
	if n.hooks.OnDeliver != nil || n.debugHooks.OnDeliver != nil {
		msg := n.message(pm)
		if n.hooks.OnDeliver != nil {
			n.hooks.OnDeliver(n.kernel.Now(), msg)
		}
		if n.debugHooks.OnDeliver != nil {
			n.debugHooks.OnDeliver(n.kernel.Now(), msg)
		}
	}
	r.receive(slot, pm)
}

// CheckConsistency verifies steady-state invariants and returns the first
// violation found. It is meaningful only when no deliveries are pending
// (the network is quiescent), and returns a distinct error when invoked on a
// non-quiescent network — call Quiescent first, or use the faults package's
// convergence watchdog, which checks only at quiescent instants:
//
//   - what every router believes it advertised (RIB-OUT) equals what the
//     peer holds in its RIB-IN for that session;
//   - every Local-RIB entry equals the decision process re-run over the
//     current RIB-INs.
//
// Note that lossy impairment (package faults) genuinely breaks the RIB-OUT /
// RIB-IN invariant: a dropped update is never retransmitted, so the peers
// disagree until the session next resets. CheckConsistency reporting such a
// divergence is the fault model working as intended.
func (n *Network) CheckConsistency() error {
	if !n.Quiescent() {
		return fmt.Errorf("bgp: consistency check on a non-quiescent network (%d deliveries in flight)", n.pendingDeliveries)
	}
	for id := range n.routers {
		r := n.router(RouterID(id))
		if r == nil || n.downRouters[id] {
			// Remote (other-shard) routers are checked by their owner; a
			// crashed router holds no state to be consistent about.
			continue
		}
		for s, q := range r.peers {
			if !n.sessionUpEdge(n.adjEdge[r.base+int32(s)], r.id, q) {
				// No session: the peers legitimately disagree until the
				// link recovers or the crashed endpoint restarts.
				continue
			}
			peer := n.router(q)
			if peer == nil {
				// Cross-shard session: the ensemble-level check pairs the
				// two shard-local views.
				continue
			}
			backSlot := n.adjRev[r.base+int32(s)] - peer.base
			for _, pid := range n.prefixOrder {
				out := r.ribOutAt(int32(s), pid)
				if out == nil {
					continue
				}
				var held pathID
				if in := peer.ribInAt(backSlot, pid); in != nil {
					held = in.path
				}
				if out.advertised != held {
					return fmt.Errorf(
						"bgp: session %d->%d prefix %s: RIB-OUT [%s] != peer RIB-IN [%s]",
						r.id, q, n.prefixes[pid], n.paths.path(out.advertised), n.paths.path(held))
				}
			}
		}
		for _, pid := range n.prefixOrder {
			if !r.hasLocalState(pid) {
				continue
			}
			if err := r.checkLocalRIB(pid); err != nil {
				return err
			}
		}
	}
	return nil
}
