package sim

import "time"

// Fork for sharded execution. A ShardGroup's mutable state is the
// per-shard kernels plus the coordinator bookkeeping (execution stats and the
// per-shard executed counts used to attribute events to epochs); the epoch
// structure itself is derived — the next epoch start is recomputed from the
// kernel queues and the exchanger at every barrier, so capturing the kernels
// at a barrier captures the whole schedule. Exchanger contents are the
// caller's state, not the group's: the caller supplies the fork's exchanger,
// already bound to the forked components and holding a copy of whatever the
// original's outboxes hold (bgp.ShardedNetwork.Fork carries them over).

// Fork returns an independent copy of the group at its current barrier state
// (call only with the group parked, between Run/RunUntil calls). The fork
// shares no mutable state with the original and resumes with the parent's
// cumulative stats; worker goroutines are not copied — the fork spins up its
// own pool lazily on first use. The caller supplies the exchanger (already
// routing to the components the forked kernels will run) and must rebind
// each kernel's event kinds with Kernel.RemapHandlers — the same contract as
// Kernel.Fork. The original group is untouched and its worker
// pool, if started, keeps running. Safe to call concurrently on the same
// parked receiver — forking only reads.
func (g *ShardGroup) Fork(ex Exchanger) (*ShardGroup, error) {
	kernels := make([]*Kernel, len(g.kernels))
	for i, k := range g.kernels {
		kernels[i] = k.Fork()
	}
	return newGroupFrom(g.lookahead, kernels, ex, g.Stats())
}

// newGroupFrom builds a group over pre-positioned kernels and seeds its stats
// with a captured profile (Stats() already deep-copied EventsPerShard).
func newGroupFrom(lookahead time.Duration, kernels []*Kernel, ex Exchanger, stats ShardStats) (*ShardGroup, error) {
	g, err := NewShardGroup(lookahead, kernels, ex)
	if err != nil {
		return nil, err
	}
	g.stats = stats
	if g.stats.EventsPerShard == nil {
		g.stats.EventsPerShard = make([]uint64, len(kernels))
	}
	return g, nil
}
