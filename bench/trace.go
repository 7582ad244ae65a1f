package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"rfd/bgp"
	"rfd/experiment"
	"rfd/metrics"
	"rfd/sim"
	"rfd/topology"
	"rfd/trace"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call. Spans of one workload share its name as
// their identifier; Parent is -1 for a root.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	StartUS  float64 `json:"start_us"`
	EndUS    float64 `json:"end_us"`
}

// tracer keeps spans in memory; they are written out once, at exit.
type tracer struct {
	t0       time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

func (t *tracer) begin(name string, parent int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload,
		StartUS: float64(time.Since(t.t0)) / 1e3})
	return id
}

// end closes the span and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	s := &t.spans[id]
	s.EndUS = float64(time.Since(t.t0)) / 1e3
	return (s.EndUS - s.StartUS) / 1e6
}

// add records a span whose endpoints were observed elsewhere (NDJSON event
// arrival times), as offsets from base.
func (t *tracer) add(name string, parent int, base time.Time, from, to time.Duration) int {
	id := len(t.spans)
	off := float64(base.Sub(t.t0)) / 1e3
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload,
		StartUS: off + float64(from)/1e3, EndUS: off + float64(to)/1e3})
	return id
}

func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerMetrics collects the per-layer metrics of one traced run by name.
type layerMetrics map[string]float64

// representative returns the scenario whose engine-direct replay stands for
// a workload in the traced run (always at referenceSeed, so per-layer numbers
// compare across runs), and the size of the Internet-derived graph timed as
// topology.internet_gen_ms there.
func representative(e *env, workload string) (experiment.Scenario, int, error) {
	switch workload {
	case wPaperFigs:
		// The paper's base case: the 10x10 torus behind Figs 8-10 and 13-14.
		g, err := topology.Torus(e.scale.meshSide, e.scale.meshSide)
		if err != nil {
			return experiment.Scenario{}, 0, err
		}
		return experiment.Scenario{Graph: g, ISP: 0, Config: ciscoConfig(referenceSeed), Pulses: 1}, e.scale.policyNodes, nil
	case wRfddMix:
		sc, err := inetScenario(e.scale.mixInetNodes, 0)
		return sc, e.scale.mixInetNodes, err
	default:
		sc, err := inetScenario(e.scale.inetNodes, 0)
		return sc, e.scale.inetNodes, err
	}
}

// runTopology rebuilds the run topology exactly as experiment.converge does:
// the base graph plus the originAS attached to the ispAS.
func runTopology(sc experiment.Scenario) (*topology.Graph, bgp.RouterID, error) {
	g := sc.Graph.Clone()
	origin := g.AddNode()
	if err := g.AddEdge(origin, sc.ISP); err != nil {
		return nil, 0, err
	}
	if g.Annotated() {
		if err := g.SetRelationship(origin, sc.ISP, topology.RelProvider); err != nil {
			return nil, 0, err
		}
	}
	return g, bgp.RouterID(origin), nil
}

// pulser is what a flap phase drives: a kernel or a shard group.
type pulser interface {
	Now() time.Duration
	RunUntil(time.Duration) error
	Run() error
}

// flapAndDrain mirrors experiment.measure's pulse loop and drain.
func flapAndDrain(p pulser, origin *bgp.Router, pulses int) error {
	for i := 0; i < pulses; i++ {
		origin.StopOriginating(experiment.FlapPrefix)
		if err := p.RunUntil(p.Now() + experiment.DefaultFlapInterval); err != nil {
			return err
		}
		origin.Originate(experiment.FlapPrefix)
		if i < pulses-1 {
			if err := p.RunUntil(p.Now() + experiment.DefaultFlapInterval); err != nil {
				return err
			}
		}
	}
	return p.Run()
}

// seqReplay is one engine-direct replay of a scenario on the sequential
// engine, phase by phase.
type seqReplay struct {
	clone, newNet, warmup, engine float64 // seconds
	warmDelivered, flapDelivered  uint64
	executed                      uint64
}

func (r seqReplay) total() float64 { return r.clone + r.newNet + r.warmup + r.engine }

// replaySequential drives the scenario through bgp.NewNetwork, Originate /
// StopOriginating and Kernel.RunUntil/Run, as experiment.Run does inside, with
// one child span per phase. built runs once the network exists (observers for
// the whole replay); converged runs on the quiescent network after warm-up,
// where experiment.measure installs its hooks.
func replaySequential(tr *tracer, name string, sc experiment.Scenario,
	built func(*sim.Kernel, *bgp.Network), converged func(*bgp.Network, time.Duration)) (seqReplay, error) {
	var rp seqReplay
	root := tr.begin(name, -1)
	defer tr.end(root)

	id := tr.begin("topology.clone", root)
	g, origin, err := runTopology(sc)
	rp.clone = tr.end(id)
	if err != nil {
		return rp, err
	}

	id = tr.begin("bgp.new_network", root)
	k := sim.NewKernel(sim.WithSeed(sc.Config.Seed))
	n, err := bgp.NewNetwork(k, g, sc.Config)
	rp.newNet = tr.end(id)
	if err != nil {
		return rp, err
	}
	if built != nil {
		built(k, n)
	}

	id = tr.begin("bgp.warmup", root)
	n.Router(origin).Originate(experiment.FlapPrefix)
	err = k.Run()
	rp.warmup = tr.end(id)
	if err != nil {
		return rp, err
	}
	rp.warmDelivered = n.Delivered()
	n.ResetDamping()
	n.ResetCounters()
	if converged != nil {
		converged(n, k.Now())
	}

	id = tr.begin("bgp.engine", root)
	err = flapAndDrain(k, n.Router(origin), sc.Pulses)
	rp.engine = tr.end(id)
	rp.flapDelivered = n.Delivered()
	rp.executed = k.Executed()
	return rp, err
}

// shardReplay is the same replay through bgp.NewShardedNetwork.
type shardReplay struct {
	clone, partition, newNet, warmup, engine float64
	delivered                                uint64
	stats                                    sim.ShardStats
	cutFrac                                  float64
	logs                                     []*trace.Log // per shard, when traced
}

func (r shardReplay) total() float64 {
	return r.clone + r.partition + r.newNet + r.warmup + r.engine
}

// replaySharded mirrors experiment's convergeSharded + measureSharded. With
// traced set it installs the per-shard trace hooks experiment reconstructs
// its Result from.
func replaySharded(tr *tracer, name string, sc experiment.Scenario, shards int, traced bool) (shardReplay, error) {
	var rp shardReplay
	root := tr.begin(name, -1)
	defer tr.end(root)

	id := tr.begin("topology.clone", root)
	g, origin, err := runTopology(sc)
	rp.clone = tr.end(id)
	if err != nil {
		return rp, err
	}

	id = tr.begin("topology.partition", root)
	assign, err := topology.Partition(g, shards)
	rp.partition = tr.end(id)
	if err != nil {
		return rp, err
	}
	rp.cutFrac = topology.AnalyzePartition(g, assign).CutFraction()

	id = tr.begin("bgp.new_sharded_network", root)
	sn, err := bgp.NewShardedNetwork(g, sc.Config, assign)
	rp.newNet = tr.end(id)
	if err != nil {
		return rp, err
	}
	defer sn.Close()
	grp := sn.Group()

	id = tr.begin("bgp.sharded.warmup", root)
	sn.Router(origin).Originate(experiment.FlapPrefix)
	err = grp.Run()
	rp.warmup = tr.end(id)
	if err != nil {
		return rp, err
	}
	rp.delivered = sn.Delivered()
	sn.Align()
	sn.ResetDamping()
	sn.ResetCounters()
	if traced {
		rp.logs = make([]*trace.Log, sn.NumShards())
		for s := range rp.logs {
			rp.logs[s] = trace.NewLog(0)
			sn.Shard(s).SetHooks(bgp.TraceHooks(rp.logs[s]))
		}
	}

	id = tr.begin("bgp.sharded.engine", root)
	err = flapAndDrain(grp, sn.Router(origin), sc.Pulses)
	rp.engine = tr.end(id)
	rp.delivered += sn.Delivered()
	rp.stats = grp.Stats()
	return rp, err
}

// Kernel event names the bgp engine schedules.
const (
	evDeliver = iota
	evMRAI
	evReuse
	evOther
	numEvents
)

func eventIndex(name string) int {
	switch name {
	case "bgp.deliver":
		return evDeliver
	case "bgp.mrai":
		return evMRAI
	case "bgp.reuse":
		return evReuse
	}
	return evOther
}

// eventTimer aggregates host time per kernel event name through the public
// observer seams: SetTrace fires before the handler, SetAfterEvent after it.
type eventTimer struct {
	start    time.Time
	ns       [numEvents]int64
	count    [numEvents]uint64
	maxDepth int
}

func (et *eventTimer) attach(k *sim.Kernel) {
	k.SetTrace(func(time.Duration, string) {
		if p := k.Pending(); p > et.maxDepth {
			et.maxDepth = p
		}
		et.start = time.Now()
	})
	k.SetAfterEvent(func(_ time.Duration, name string) {
		d := time.Since(et.start)
		i := eventIndex(name)
		et.ns[i] += int64(d)
		et.count[i]++
	})
}

func (et *eventTimer) meanNS(i int) float64 {
	if et.count[i] == 0 {
		return 0
	}
	return float64(et.ns[i]) / float64(et.count[i])
}

// bookkeeping holds the series experiment.measure's live hooks fill, so a
// replay can carry the same per-event work above the engine.
type bookkeeping struct {
	updates, noisy *metrics.EventSeries
	damped         *metrics.StepSeries
	last           map[bgp.RouterID]time.Duration
}

func (b *bookkeeping) attach(n *bgp.Network, epoch time.Duration) {
	b.updates, b.noisy = &metrics.EventSeries{}, &metrics.EventSeries{}
	b.damped = &metrics.StepSeries{}
	b.last = make(map[bgp.RouterID]time.Duration)
	n.SetHooks(bgp.Hooks{
		OnDeliver: func(at time.Duration, msg bgp.Message) {
			b.updates.Record(at - epoch)
			b.last[msg.To] = at - epoch
		},
		OnSuppress: func(at time.Duration, _, _ bgp.RouterID, _ bgp.Prefix, _ bool) {
			b.damped.Record(at-epoch, n.DampedLinkCount())
		},
		OnReuse: func(at time.Duration, _, _ bgp.RouterID, _ bgp.Prefix, noisy bool) {
			if noisy {
				b.noisy.Record(at - epoch)
			}
		},
		OnPenalty: func(time.Duration, bgp.RouterID, bgp.RouterID, bgp.Prefix, float64) {},
	})
}

// medianOf times fn reps times and returns the median in seconds.
func medianOf(reps int, fn func() error) (float64, error) {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), nil
}

// traceLayers is the part of a traced run every workload shares: the root
// experiment.Run span, the engine-direct replays of the workload's
// representative scenario on both engines, and the leaf-layer probes sized by
// what those replays observed. checks counts the replays' output checks.
func traceLayers(e *env, tr *tracer, workload string, lm layerMetrics, checks *e2eRun) error {
	sc, genNodes, err := representative(e, workload)
	if err != nil {
		return err
	}
	fmt.Fprintf(e.log, "traced scenario: %s, %d routers, Cisco damping, %d pulse(s)\n",
		sc.Graph.Name(), sc.Graph.NumNodes(), sc.Pulses)

	gen, err := medianOf(5, func() error {
		_, err := topology.InternetDerived(topology.DefaultInternetConfig(genNodes, referenceSeed))
		return err
	})
	if err != nil {
		return err
	}
	lm["topology.internet_gen_ms"] = gen * 1e3

	// Root span: the real experiment path, no observers of ours inside it.
	id := tr.begin("experiment.Run", -1)
	res, err := experiment.Run(sc)
	runS := tr.end(id)
	if err != nil {
		return err
	}
	want := countersOf(res)
	fmt.Fprintf(e.log, "experiment.Run: %v\n", want)
	lm["experiment.run_s"] = runS
	lm["updates_per_host_s"] = float64(res.MessageCount) / runS

	// Replay A: bare engine. Snapshot and fork are timed at the converged
	// state, between the warm-up and engine spans.
	var snapErr error
	plain, err := replaySequential(tr, "replay.plain", sc, nil, func(n *bgp.Network, _ time.Duration) {
		t0 := time.Now()
		snap, err := n.Snapshot()
		if snapErr = err; err != nil {
			return
		}
		lm["bgp.snapshot_ms"] = time.Since(t0).Seconds() * 1e3
		t0 = time.Now()
		snap.Fork()
		lm["bgp.fork_ms"] = time.Since(t0).Seconds() * 1e3
	})
	if err != nil {
		return err
	}
	checks.attempted++
	if snapErr != nil {
		checks.fail("bgp.Snapshot at the converged state: %v", snapErr)
	}
	checks.attempted++
	if plain.flapDelivered != uint64(res.MessageCount) {
		checks.fail("replay delivered %d flap-phase updates, experiment.Run counted %d", plain.flapDelivered, res.MessageCount)
	}
	lm["bgp.new_network_ms"] = plain.newNet * 1e3
	lm["bgp.warmup_ms"] = plain.warmup * 1e3
	lm["bgp.engine_s"] = plain.engine
	lm["bgp.delivered"] = float64(plain.warmDelivered + plain.flapDelivered)
	lm["sim.events"] = float64(plain.executed)
	lm["eventq.ops"] = 2 * float64(plain.executed) // the queue drains: one push and one pop per fired event
	lm["experiment.self_s"] = runS - plain.total()
	lm["experiment.self_frac"] = (runS - plain.total()) / runS
	lm[keySetupS] = plain.clone + plain.newNet
	lm[keyPlainRunS] = plain.warmup + plain.engine
	lm[keyFlapUpdates] = float64(plain.flapDelivered)

	// Replay B: the same replay under per-event timing and counting hooks.
	var et eventTimer
	var updates, suppressions, reuses, sent uint64
	timed, err := replaySequential(tr, "replay.timed", sc, func(k *sim.Kernel, n *bgp.Network) {
		et.attach(k)
		n.SetHooks(bgp.Hooks{
			OnPenalty: func(time.Duration, bgp.RouterID, bgp.RouterID, bgp.Prefix, float64) { updates++ },
			OnSuppress: func(_ time.Duration, _, _ bgp.RouterID, _ bgp.Prefix, on bool) {
				if on {
					suppressions++
				}
			},
			OnReuse: func(time.Duration, bgp.RouterID, bgp.RouterID, bgp.Prefix, bool) { reuses++ },
		})
		n.SetDebugHooks(bgp.DebugHooks{OnSend: func(time.Duration, bgp.Message) { sent++ }})
	}, nil)
	if err != nil {
		return err
	}
	checks.attempted++
	if timed.executed != plain.executed || timed.flapDelivered != plain.flapDelivered {
		checks.fail("timing hooks changed the replay: %d events / %d updates against %d / %d",
			timed.executed, timed.flapDelivered, plain.executed, plain.flapDelivered)
	}
	lm["trace_overhead_frac"] = timed.total()/plain.total() - 1
	lm[keyHookedRunS] = timed.warmup + timed.engine
	lm["bgp.deliver_ns"], lm["bgp.deliver_events"] = et.meanNS(evDeliver), float64(et.count[evDeliver])
	lm["bgp.mrai_ns"], lm["bgp.mrai_events"] = et.meanNS(evMRAI), float64(et.count[evMRAI])
	lm["bgp.reuse_ns"], lm["bgp.reuse_events"] = et.meanNS(evReuse), float64(et.count[evReuse])
	lm["bgp.sent"] = float64(sent)
	lm["damping.updates"] = float64(updates)
	lm["damping.suppressions"] = float64(suppressions)
	lm["damping.reuses"] = float64(reuses)

	// Replay C: the engine carrying the same per-event bookkeeping as
	// experiment.measure. Its surplus over replay A is an independent measure
	// of experiment's self time; what neither explains is unattributed.
	var bk bookkeeping
	booked, err := replaySequential(tr, "replay.bookkeeping", sc, nil, bk.attach)
	if err != nil {
		return err
	}
	checks.attempted++
	if bk.updates.Count() != res.MessageCount || bk.damped.Max() != res.MaxDamped {
		checks.fail("bookkeeping replay saw %d updates / %d max damped, experiment.Run %d / %d",
			bk.updates.Count(), bk.damped.Max(), res.MessageCount, res.MaxDamped)
	}
	lm["experiment.bookkeeping_s"] = booked.engine - plain.engine
	unattributed := (runS - plain.total() - (booked.engine - plain.engine)) / runS
	if unattributed < 0 {
		unattributed = -unattributed
	}
	lm["budget.unattributed_frac"] = unattributed

	phases, err := medianOf(5, func() error {
		metrics.ComputePhases(res.Updates, res.NoisyReuseTimes, res.FlapStart, res.FlapEnd)
		return nil
	})
	if err != nil {
		return err
	}
	lm["metrics.phases_us"] = phases * 1e6

	if err := traceSharded(e, tr, sc, want, lm, checks); err != nil {
		return err
	}
	if err := traceCaches(sc, lm); err != nil {
		return err
	}
	runProbes(e.scale.probeN, max(et.maxDepth, 1), lm, checks)
	return nil
}

// traceSharded is the sharded half of the layer pass: experiment.Run with
// Shards=2 as the root, its engine-direct replay, and the trace merge the
// sharded Result is reconstructed from.
func traceSharded(e *env, tr *tracer, sc experiment.Scenario, want simCounters, lm layerMetrics, checks *e2eRun) error {
	const shards = 2
	sharded := sc
	sharded.Shards = shards
	id := tr.begin("experiment.Run/shards=2", -1)
	res, err := experiment.Run(sharded)
	runS := tr.end(id)
	if err != nil {
		return err
	}
	checks.attempted++
	if got := countersOf(res); got != want {
		checks.fail("engines disagree: sequential %v, shards=2 %v", want, got)
	}
	lm["experiment.sharded.run_s"] = runS

	plain, err := replaySharded(tr, "replay.sharded", sc, shards, false)
	if err != nil {
		return err
	}
	checks.attempted++
	if seq := lm["bgp.delivered"]; float64(plain.delivered) != seq {
		checks.fail("sharded replay delivered %d updates, the sequential replay %.0f", plain.delivered, seq)
	}
	lm["topology.partition_ms"] = plain.partition * 1e3
	lm["topology.partition.cut_frac"] = plain.cutFrac
	lm["bgp.sharded.engine_s"] = plain.engine
	lm["bgp.sharded.delivered"] = float64(plain.delivered)
	lm["sim.shard.epochs"] = float64(plain.stats.Epochs)
	lm["sim.shard.parallelism"] = plain.stats.Parallelism()
	lm["sim.shard.injected"] = float64(plain.stats.Injected)
	lm["experiment.sharded.self_s"] = runS - plain.total()

	logged, err := replaySharded(tr, "replay.sharded.traced", sc, shards, true)
	if err != nil {
		return err
	}
	events := 0
	for _, l := range logged.logs {
		events += l.Len()
	}
	lm["trace.events"] = float64(events)
	id = tr.begin("trace.merge", -1)
	trace.Merge(logged.logs...).Canonical()
	lm["trace.merge_ms"] = tr.end(id) * 1e3
	return nil
}

// traceCaches times the per-request layers above the engine on one base
// scenario: checkpoint build and fork, fingerprint, cache hit, pool hit.
func traceCaches(sc experiment.Scenario, lm layerMetrics) error {
	costs, err := requestCosts(sc)
	if err != nil {
		return err
	}
	lm["experiment.checkpoint_new_ms"] = costs.checkpointNew * 1e3
	lm["experiment.checkpoint_run0_ms"] = costs.run0 * 1e3
	lm["experiment.fingerprint_us"] = costs.fingerprint * 1e6
	lm["experiment.runcache_hit_us"] = costs.cacheHit * 1e6
	lm["experiment.pool_hit_us"] = costs.poolHit * 1e6
	return nil
}

// requestCost is what requests spend in experiment above the engine,
// measured in-process on one base scenario (seconds).
type requestCost struct {
	checkpointNew float64 // CheckpointPool.Get on a new base: warm-up + snapshot
	run0          float64 // Checkpoint.Run with Pulses=0: fork + measure floor
	fingerprint   float64 // Scenario.Fingerprint: canonical graph encoding + SHA-256
	cacheHit      float64 // fully cached one-point RunCache.Sweep, the fingerprint it computes included
	poolHit       float64 // CheckpointPool.Get on a pooled base, the fingerprint it computes included
}

func requestCosts(sc experiment.Scenario) (requestCost, error) {
	var c requestCost
	ctx := context.Background()
	cache := experiment.NewRunCache()
	pool := experiment.NewCheckpointPool(0)
	cache.SetCheckpointPool(pool)

	t0 := time.Now()
	cp, err := pool.Get(ctx, sc)
	if err != nil {
		return c, err
	}
	c.checkpointNew = time.Since(t0).Seconds()
	zero := sc
	zero.Pulses = 0
	if c.run0, err = medianOf(3, func() error {
		_, err := cp.Run(zero)
		return err
	}); err != nil {
		return c, err
	}
	if c.fingerprint, err = medianOf(9, func() error {
		if _, ok := sc.Fingerprint(); !ok {
			return fmt.Errorf("scenario has no fingerprint")
		}
		return nil
	}); err != nil {
		return c, err
	}
	// One point keeps the fill cheap; a hit costs one fingerprint plus one
	// map lookup per point, whatever the Results hold. The lookup cannot be
	// timed apart from outside, so both hits include their fingerprint.
	pulses := []int{0}
	if _, err := cache.Sweep(sc, pulses, 1); err != nil {
		return c, err
	}
	if c.cacheHit, err = medianOf(9, func() error {
		_, err := cache.Sweep(sc, pulses, 1)
		return err
	}); err != nil {
		return c, err
	}
	c.poolHit, err = medianOf(9, func() error {
		_, err := pool.Get(ctx, sc)
		return err
	})
	return c, err
}
