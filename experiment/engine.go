package experiment

import (
	"context"
	"errors"
	"time"

	"rfd/bgp"
)

// engine is what converge, a flight and Checkpoint need from a simulation
// engine. *bgp.Network and *bgp.ShardedNetwork supply the exported half
// directly; the adapters below add the rest, so the run path is written once.
type engine interface {
	Router(id bgp.RouterID) *bgp.Router
	ResetDamping()
	ResetCounters()
	Dropped() uint64
	CheckConsistency() error

	now() time.Duration
	// run drains the engine; runUntil fires every event up to and including
	// t. Both leave every clock of the engine at now(), so stimuli applied
	// to routers directly between calls are stamped identically on either
	// engine. runUntil reports dry when the events ran out on the way to t,
	// and quiet, the engine time a drain would have stopped at then
	// (sim.Kernel.RunUntilQuiet). The sharded engine never reports dry: a
	// flight advances only to be forked (flight.advance), which it cannot be.
	run(ctx context.Context) error
	runUntil(ctx context.Context, t time.Duration) (quiet time.Duration, dry bool, err error)
	// shards lists the networks that carry the engine's routers (one for the
	// sequential engine): observers install on each. What needs a single
	// network — the checker, impairments, fault plans, the link flap, the
	// trace — acts on the first, and validate refuses it on several.
	shards() []*bgp.Network
	// fork returns an independent copy of the engine as it stands between
	// run calls — in-flight messages, pending timers and faults, and stream
	// positions included. Only the sequential engine forks.
	fork() (engine, error)
	close()
}

type seqEngine struct{ *bgp.Network }

func (e seqEngine) now() time.Duration            { return e.Kernel().Now() }
func (e seqEngine) run(ctx context.Context) error { return e.Kernel().RunContext(ctx) }
func (e seqEngine) runUntil(ctx context.Context, t time.Duration) (time.Duration, bool, error) {
	return e.Kernel().RunUntilQuiet(ctx, t)
}
func (e seqEngine) shards() []*bgp.Network { return []*bgp.Network{e.Network} }
func (e seqEngine) fork() (engine, error) {
	_, n, err := e.Network.Fork()
	return seqEngine{n}, err
}
func (seqEngine) close() {}

type shardedEngine struct{ *bgp.ShardedNetwork }

func (e shardedEngine) now() time.Duration { return e.Now() }

// run aligns the shard clocks after the drain: each sits at its last local
// event, while the sequential engine's sits at the global last one.
func (e shardedEngine) run(ctx context.Context) error {
	err := e.Group().RunContext(ctx)
	if err == nil {
		e.Align()
	}
	return err
}
func (e shardedEngine) runUntil(ctx context.Context, t time.Duration) (time.Duration, bool, error) {
	return 0, false, e.Group().RunUntilContext(ctx, t)
}
func (e shardedEngine) shards() []*bgp.Network {
	nets := make([]*bgp.Network, e.NumShards())
	for s := range nets {
		nets[s] = e.Shard(s)
	}
	return nets
}
func (shardedEngine) fork() (engine, error) {
	return nil, errors.New("experiment: a sharded engine cannot fork")
}
func (e shardedEngine) close() { e.Close() }
