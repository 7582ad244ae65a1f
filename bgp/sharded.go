package bgp

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"rfd/sim"
	"rfd/topology"
)

// remoteMsg is a cross-shard message parked in the ensemble outbox between
// the send and the next epoch barrier. at is the final arrival time (FIFO
// stamp included) and pm the message with its session generation and
// receiver-side directed slot; src/seq give the canonical injection order.
// Path and prefix ids are the sending shard's, so the message also carries
// their content — the sender's canonical path, immutable — for the
// receiving shard to number on injection; to names the receiving router.
type remoteMsg struct {
	at     time.Duration
	pm     pendingMsg
	path   Path
	prefix Prefix
	to     RouterID
	src    int32
	seq    uint64
}

// ShardedNetwork runs one bgp.Network per shard, each on its own sim.Kernel,
// under a sim.ShardGroup's conservative-lookahead epochs. Every shard is
// constructed from the same topology, config and seed — replaying the full
// construction RNG sequence so each router receives exactly its sequential
// stream — but instantiates only the routers its shard owns. Link and
// session state is replicated per shard, and never changes: a sharded
// network takes no faults and no link flap (every fault entry point of a
// shard network refuses), so the replicas cannot diverge.
//
// The lookahead is minLinkDelay + minProcDelay: a message sent at t arrives
// no earlier than t + lookahead, so events inside an epoch [T, T+L) cannot
// produce cross-shard work inside the same epoch. Cross-shard messages
// collect in per-shard outboxes and are injected at the barrier in
// (time, source shard, sequence) order, making runs independent of goroutine
// scheduling and byte-identical to the sequential engine per seed.
type ShardedNetwork struct {
	owner  []int32
	shards []*Network
	group  *sim.ShardGroup

	outbox   [][]remoteMsg
	seq      []uint64
	flushBuf []remoteMsg
}

// lookahead is the conservative cross-shard latency bound: no message
// arrives sooner after its send.
const lookahead = minLinkDelay + minProcDelay

// NewShardedNetwork partitions g's routers across shards per assign (node id
// → shard, as produced by topology.Partition) and builds one shard network
// per shard on a fresh kernel. Every Option is applied to the group.
func NewShardedNetwork(g *topology.Graph, cfg Config, assign []int32) (*ShardedNetwork, error) {
	if len(assign) != g.NumNodes() {
		return nil, fmt.Errorf("bgp: partition covers %d nodes, topology has %d", len(assign), g.NumNodes())
	}
	nshards := 0
	for v, s := range assign {
		if s < 0 {
			return nil, fmt.Errorf("bgp: node %d unassigned", v)
		}
		if int(s)+1 > nshards {
			nshards = int(s) + 1
		}
	}
	sn := &ShardedNetwork{
		owner:  assign,
		shards: make([]*Network, nshards),
		outbox: make([][]remoteMsg, nshards),
		seq:    make([]uint64, nshards),
	}
	kernels := make([]*sim.Kernel, nshards)
	for s := range int32(nshards) {
		kernels[s] = sim.NewKernel()
		n, err := newNetwork(kernels[s], g, cfg, assign, s)
		if err != nil {
			return nil, err
		}
		// Cross-shard sends park in this shard's outbox until the barrier.
		n.remoteSend = func(at time.Duration, pm pendingMsg) {
			sn.seq[s]++
			to, _ := n.dirRouter(pm.dir)
			sn.outbox[s] = append(sn.outbox[s], remoteMsg{
				at: at, pm: pm, path: n.paths.path(pm.path), prefix: n.prefixes[pm.pid],
				to: to.id, src: s, seq: sn.seq[s],
			})
		}
		sn.shards[s] = n
	}
	group, err := sim.NewShardGroup(lookahead, kernels, sn)
	if err != nil {
		return nil, err
	}
	sn.group = group
	return sn, nil
}

// injectRemote schedules a cross-shard message on its receiving shard,
// renumbering its prefix and path in this network's tables.
func (n *Network) injectRemote(m *remoteMsg) {
	pm := m.pm
	pm.pid = n.prefixID(m.prefix)
	pm.path = n.paths.intern(m.path)
	n.injectDelivery(m.at, pm)
}

// Flush implements sim.Exchanger: drain every outbox and inject the messages
// into their owners' kernels in (time, source shard, sequence) order. Called
// by the group with every shard parked.
func (sn *ShardedNetwork) Flush() int {
	total := 0
	for _, box := range sn.outbox {
		total += len(box)
	}
	if total == 0 {
		return 0
	}
	buf := sn.flushBuf[:0]
	for s, box := range sn.outbox {
		buf = append(buf, box...)
		sn.outbox[s] = box[:0]
	}
	slices.SortFunc(buf, func(a, b remoteMsg) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.src, b.src), cmp.Compare(a.seq, b.seq))
	})
	for i := range buf {
		sn.shards[sn.owner[buf[i].to]].injectRemote(&buf[i])
	}
	sn.flushBuf = buf[:0]
	return total
}

// Pending implements sim.Exchanger: the earliest arrival waiting in any
// outbox.
func (sn *ShardedNetwork) Pending() (time.Duration, bool) {
	var min time.Duration
	ok := false
	for _, box := range sn.outbox {
		for _, m := range box {
			if !ok || m.at < min {
				min, ok = m.at, true
			}
		}
	}
	return min, ok
}

// Group returns the coordinator driving the shards. Use it to run the
// ensemble (Run/RunUntil/…) and to read epoch statistics.
func (sn *ShardedNetwork) Group() *sim.ShardGroup { return sn.group }

// Close stops the group's worker goroutines.
func (sn *ShardedNetwork) Close() { sn.group.Close() }

// NumShards returns the shard count.
func (sn *ShardedNetwork) NumShards() int { return len(sn.shards) }

// Shard returns shard s's network (its routers, hooks, counters).
func (sn *ShardedNetwork) Shard(s int) *Network { return sn.shards[s] }

// Router returns the live instance of router id (from its owning shard).
func (sn *ShardedNetwork) Router(id RouterID) *Router {
	if id < 0 || int(id) >= len(sn.owner) {
		return nil
	}
	return sn.shards[sn.owner[id]].Router(id)
}

// Now returns the ensemble's virtual clock (max across shards).
func (sn *ShardedNetwork) Now() time.Duration { return sn.group.Now() }

// Align advances every shard's clock to the ensemble clock. After a full
// drain the shards' clocks sit at their last *local* events while the
// sequential engine's clock sits at the *global* last event; stimuli applied
// without aligning would be scheduled relative to different "now"s than the
// sequential engine uses, breaking trace equivalence. RunUntil aligns
// implicitly; call Align after Run (drain) before touching routers directly.
func (sn *ShardedNetwork) Align() { sn.group.AdvanceTo(sn.group.Now()) }

// Quiescent reports whether no deliveries are pending on any shard and no
// cross-shard message waits in an outbox.
func (sn *ShardedNetwork) Quiescent() bool {
	for _, n := range sn.shards {
		if !n.Quiescent() {
			return false
		}
	}
	for _, box := range sn.outbox {
		if len(box) > 0 {
			return false
		}
	}
	return true
}

// PendingDeliveries sums in-flight messages across shards and outboxes.
func (sn *ShardedNetwork) PendingDeliveries() int {
	total := 0
	for _, n := range sn.shards {
		total += n.PendingDeliveries()
	}
	for _, box := range sn.outbox {
		total += len(box)
	}
	return total
}

// Delivered sums delivered-message counters across shards.
func (sn *ShardedNetwork) Delivered() uint64 {
	var total uint64
	for _, n := range sn.shards {
		total += n.Delivered()
	}
	return total
}

// Dropped sums dropped-message counters across shards.
func (sn *ShardedNetwork) Dropped() uint64 {
	var total uint64
	for _, n := range sn.shards {
		total += n.Dropped()
	}
	return total
}

// ResetCounters zeroes every shard's counters.
func (sn *ShardedNetwork) ResetCounters() {
	for _, n := range sn.shards {
		n.ResetCounters()
	}
}

// ResetDamping clears damping state on every shard.
func (sn *ShardedNetwork) ResetDamping() {
	for _, n := range sn.shards {
		n.ResetDamping()
	}
}

// CheckConsistency runs the sequential engine's quiescent-state invariants
// across the whole ensemble, pairing cross-shard sessions through their
// owners' views.
func (sn *ShardedNetwork) CheckConsistency() error {
	if !sn.Quiescent() {
		return fmt.Errorf("bgp: consistency check on a non-quiescent ensemble (%d deliveries in flight)", sn.PendingDeliveries())
	}
	// Intra-shard invariants (incl. Local-RIB re-decision) per shard.
	for _, n := range sn.shards {
		if err := n.CheckConsistency(); err != nil {
			return err
		}
	}
	// Cross-shard sessions: what each owner believes it advertised must be
	// what the peer's owner holds.
	for id := range sn.owner {
		r := sn.Router(RouterID(id))
		n := sn.shards[sn.owner[id]]
		for s, q := range r.peers {
			if sn.owner[q] == sn.owner[id] {
				continue // checked intra-shard
			}
			peer := sn.Router(q)
			peerNet := sn.shards[sn.owner[q]]
			backSlot := n.adjRev[r.base+int32(s)] - peer.base
			for _, pid := range n.prefixOrder {
				out := r.ribOutAt(int32(s), pid)
				if out == nil {
					continue
				}
				var held Path
				if ppid, ok := peerNet.lookupPrefix(n.prefixes[pid]); ok {
					if in := peer.ribInAt(backSlot, ppid); in != nil {
						held = peerNet.paths.path(in.path)
					}
				}
				if advertised := n.paths.path(out.advertised); !advertised.Equal(held) {
					return fmt.Errorf(
						"bgp: cross-shard session %d->%d prefix %s: RIB-OUT [%s] != peer RIB-IN [%s]",
						r.id, q, n.prefixes[pid], advertised, held)
				}
			}
		}
	}
	return nil
}
