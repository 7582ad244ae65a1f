// Sharded parallel event execution: a ShardGroup runs K kernels in lockstep
// epochs under conservative lookahead.
//
// The scheme is classic conservative parallel discrete-event simulation
// (Chandy–Misra–Bryant specialized to a barrier/epoch form). Every event is
// owned by exactly one shard; the only cross-shard interaction is message
// injection, and the model guarantees a minimum latency L (the lookahead)
// between the instant a cross-shard message is produced and the instant it
// must execute at its destination. Under that guarantee the group can run all
// shards independently over the epoch [T, T+L), where T is the earliest
// pending instant anywhere: no event executed in the epoch can cause another
// shard's event inside the same epoch. At the barrier the coordinator drains
// every shard's outbox, injects the collected events in a deterministic
// global order (time, source shard, source sequence), and opens the next
// epoch at the new earliest instant.
//
// Determinism: within an epoch a shard is an ordinary sequential kernel, and
// the barrier exchange is single-threaded with a total order on injected
// events, so a run is a pure function of the initial schedules, the seeds and
// the exchange contents — independent of goroutine scheduling. The worker
// goroutines exist only to overlap wall-clock work; disabling them
// (Sequential mode) produces byte-identical results.
package sim

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Exchanger moves cross-shard traffic at an epoch barrier. Implementations
// (bgp.ShardedNetwork) collect outbound events into per-shard outboxes while
// shards run, and inject them into the destination kernels when the
// coordinator calls Flush — which happens with every shard parked, so Flush
// may touch any kernel. Flush must inject in a deterministic order and
// returns the number of events moved.
//
// Pending reports the earliest event time waiting in an outbox, so the
// coordinator can pick the next epoch start even when every kernel queue is
// momentarily empty.
type Exchanger interface {
	Flush() int
	Pending() (time.Duration, bool)
}

// NopExchanger is the Exchanger for shard sets with no cross-shard edges
// (K=1 groups, or fully partitioned workloads in tests).
type NopExchanger struct{}

// Flush implements Exchanger.
func (NopExchanger) Flush() int { return 0 }

// Pending implements Exchanger.
func (NopExchanger) Pending() (time.Duration, bool) { return 0, false }

// ShardStats accumulates the group's execution profile. CriticalPathEvents
// sums, over epochs, the largest per-shard event count of that epoch — the
// number of sequential event slots an ideally parallel execution of this
// partition cannot go below. TotalEvents / CriticalPathEvents is therefore
// the partition's achievable parallelism on this workload, independent of the
// host's core count (the recorded benchmarks report it next to wall clock,
// which on a small host is bounded by GOMAXPROCS instead).
type ShardStats struct {
	// Epochs is the number of barrier-to-barrier rounds executed.
	Epochs uint64
	// TotalEvents is the sum of events executed across all shards.
	TotalEvents uint64
	// CriticalPathEvents is the sum over epochs of the per-epoch maximum
	// shard event count.
	CriticalPathEvents uint64
	// Injected is the number of cross-shard events moved at barriers.
	Injected uint64
	// SoloEpochs is the number of epochs in which a single shard had events
	// before the horizon; they run on the coordinator without a barrier.
	SoloEpochs uint64
	// EventsPerShard is the per-shard executed-event breakdown.
	EventsPerShard []uint64
}

// Parallelism returns TotalEvents / CriticalPathEvents (1 when no events ran).
func (s ShardStats) Parallelism() float64 {
	if s.CriticalPathEvents == 0 {
		return 1
	}
	return float64(s.TotalEvents) / float64(s.CriticalPathEvents)
}

// ShardGroup coordinates K kernels under conservative lookahead. Construct
// with NewShardGroup; a group must not be shared between goroutines, and the
// kernels must not be driven directly (Run/Step) while the group owns them.
type ShardGroup struct {
	kernels   []*Kernel
	lookahead time.Duration
	exchange  Exchanger

	stats ShardStats

	// Worker pool state: workers persist across epochs so an epoch barrier
	// costs two channel hops per woken shard, not a goroutine spawn. Shard 0
	// has no worker: whenever it is busy it is the lowest-numbered busy
	// shard, which the coordinator runs itself.
	workers   sync.WaitGroup
	work      []chan time.Duration // per-shard epoch horizon; work[0] is nil
	done      chan workerDone
	started   bool
	closed    bool
	prevEpoch []uint64 // per-shard executed count at last barrier
	busy      []int    // scratch: shards with events in the current epoch
}

type workerDone struct {
	shard int
	err   error
}

// NewShardGroup builds a coordinator over the given kernels. The lookahead
// must be positive: it is the guaranteed minimum latency of any cross-shard
// event (for the BGP engine, the minimum cut-edge link delay plus the minimum
// sender processing delay). The exchanger moves cross-shard traffic at
// barriers; use NopExchanger when there is none.
func NewShardGroup(lookahead time.Duration, kernels []*Kernel, ex Exchanger) (*ShardGroup, error) {
	if lookahead <= 0 {
		return nil, fmt.Errorf("sim: sharded execution requires positive lookahead, got %v", lookahead)
	}
	if len(kernels) == 0 {
		return nil, errors.New("sim: shard group needs at least one kernel")
	}
	if ex == nil {
		ex = NopExchanger{}
	}
	g := &ShardGroup{
		kernels:   kernels,
		lookahead: lookahead,
		exchange:  ex,
		prevEpoch: make([]uint64, len(kernels)),
	}
	g.stats.EventsPerShard = make([]uint64, len(kernels))
	for i, k := range kernels {
		g.prevEpoch[i] = k.Executed()
	}
	return g, nil
}

// Stats returns the execution profile accumulated so far.
func (g *ShardGroup) Stats() ShardStats {
	s := g.stats
	s.EventsPerShard = append([]uint64(nil), g.stats.EventsPerShard...)
	return s
}

// Now returns the maximum kernel clock across shards — after RunUntil every
// clock equals the horizon; after a drain it is the time of the globally last
// fired event, matching what a sequential kernel's Now would report.
func (g *ShardGroup) Now() time.Duration {
	var max time.Duration
	for _, k := range g.kernels {
		if k.Now() > max {
			max = k.Now()
		}
	}
	return max
}

// AdvanceTo aligns every shard's clock at the barrier instant at. Call only
// when the group is parked (between Run/RunUntil calls) and no shard has a
// pending event before at.
func (g *ShardGroup) AdvanceTo(at time.Duration) {
	for _, k := range g.kernels {
		if k.Now() < at {
			k.AdvanceTo(at)
		}
	}
}

// start spins up the worker pool: one goroutine per shard after the first.
func (g *ShardGroup) start() {
	if g.started {
		return
	}
	g.started = true
	g.work = make([]chan time.Duration, len(g.kernels))
	g.done = make(chan workerDone, len(g.kernels)-1)
	for i := 1; i < len(g.kernels); i++ {
		g.work[i] = make(chan time.Duration)
		g.workers.Add(1)
		go func(shard int) {
			defer g.workers.Done()
			k := g.kernels[shard]
			for horizon := range g.work[shard] {
				g.done <- workerDone{shard: shard, err: k.RunBefore(horizon)}
			}
		}(i)
	}
}

// Close stops the worker goroutines. The group is unusable afterwards; the
// kernels remain valid and may be driven directly again. Safe to call twice.
func (g *ShardGroup) Close() {
	if !g.started || g.closed {
		g.closed = true
		return
	}
	g.closed = true
	for _, ch := range g.work[1:] {
		close(ch)
	}
	g.workers.Wait()
}

// nextEpochStart returns the earliest pending instant across kernel queues
// and outboxes, or ok=false when nothing is pending anywhere.
func (g *ShardGroup) nextEpochStart() (time.Duration, bool) {
	var start time.Duration
	ok := false
	for _, k := range g.kernels {
		if at, has := k.NextEventTime(); has && (!ok || at < start) {
			start, ok = at, true
		}
	}
	if at, has := g.exchange.Pending(); has && (!ok || at < start) {
		start, ok = at, true
	}
	return start, ok
}

// runEpoch executes one epoch with the given exclusive horizon on every
// shard that has an event before it, then accounts stats. When several shards
// fail in one epoch it returns the lowest-numbered one's error, so the text
// (it embeds that kernel's event count and clock) does not depend on which
// worker finished first.
func (g *ShardGroup) runEpoch(horizon time.Duration) error {
	busy := g.busy[:0]
	for i, k := range g.kernels {
		if at, ok := k.NextEventTime(); ok && at < horizon {
			busy = append(busy, i)
		}
	}
	g.busy = busy
	if len(busy) <= 1 {
		g.stats.SoloEpochs++
	}
	var err error
	if len(busy) <= 1 || g.closed {
		for _, s := range busy {
			if e := g.kernels[s].RunBefore(horizon); e != nil && err == nil {
				err = e
			}
		}
	} else {
		g.start()
		for _, s := range busy[1:] {
			g.work[s] <- horizon
		}
		failed := busy[0]
		err = g.kernels[failed].RunBefore(horizon)
		for range busy[1:] {
			if d := <-g.done; d.err != nil && (err == nil || d.shard < failed) {
				err, failed = d.err, d.shard
			}
		}
	}
	g.stats.Epochs++
	var epochMax uint64
	for i, k := range g.kernels {
		n := k.Executed() - g.prevEpoch[i]
		g.prevEpoch[i] = k.Executed()
		g.stats.EventsPerShard[i] += n
		g.stats.TotalEvents += n
		if n > epochMax {
			epochMax = n
		}
	}
	g.stats.CriticalPathEvents += epochMax
	return err
}

// Run drains every shard: epochs advance until no kernel has a pending event
// and no outbox holds one. Each shard's clock is then settled (see
// Kernel.Settle): it is left at its last fired event or its latest mark still
// ahead, whichever is later.
func (g *ShardGroup) Run() error {
	return g.RunContext(context.Background())
}

// RunContext is Run with a cooperative stop check at every epoch barrier.
func (g *ShardGroup) RunContext(ctx context.Context) error {
	for {
		g.stats.Injected += uint64(g.exchange.Flush())
		start, ok := g.nextEpochStart()
		if !ok {
			for _, k := range g.kernels {
				k.Settle()
			}
			return nil
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%w at %v: %w", ErrInterrupted, g.Now(), context.Cause(ctx))
		}
		if err := g.runEpoch(start + g.lookahead); err != nil {
			return err
		}
	}
}

// RunUntil fires every event with time <= horizon (leaving later events
// pending) and advances every shard clock to exactly horizon, past every mark
// at or before it, matching Kernel.RunUntil's inclusive boundary. Events at
// exactly the horizon instant are executed only after every cross-shard
// message that can arrive at or before it has been exchanged, so the
// inclusive boundary is safe.
func (g *ShardGroup) RunUntil(horizon time.Duration) error {
	return g.RunUntilContext(context.Background(), horizon)
}

// RunUntilContext is RunUntil with a cooperative stop check at every barrier.
func (g *ShardGroup) RunUntilContext(ctx context.Context, horizon time.Duration) error {
	for {
		g.stats.Injected += uint64(g.exchange.Flush())
		start, ok := g.nextEpochStart()
		if !ok || start > horizon {
			break
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%w at %v: %w", ErrInterrupted, g.Now(), context.Cause(ctx))
		}
		// Clamp the epoch to the inclusive horizon: RunBefore's exclusive
		// bound means horizon+1ns executes events at exactly the horizon.
		// The clamp can only shorten the epoch, which is always conservative.
		end := start + g.lookahead
		if end > horizon+time.Nanosecond {
			end = horizon + time.Nanosecond
		}
		if err := g.runEpoch(end); err != nil {
			return err
		}
	}
	for _, k := range g.kernels {
		k.passTo(horizon)
	}
	return nil
}
