package main

import (
	"time"

	"rfd/damping"
	"rfd/internal/eventq"
	"rfd/metrics"
	"rfd/sim"
	"rfd/trace"
)

// Leaf layers that no observer seam separates are timed by probes: tight
// loops over the layer's public functions, sized by what the engine-direct
// replay observed (queue depth) and repeated n times. Probe results are host
// ns per call on a warm cache — a floor for the layer's cost inside a run.

// xorshift is a cheap deterministic offset stream, so queue insertions land
// at varying heap positions the way simulated event times do.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

func perCallNS(n int, d time.Duration) float64 { return float64(d) / float64(n) }

// probeEventq times a Pop+Push pair and a Reschedule on a queue held at the
// replay's maximum depth.
func probeEventq(n, depth int) (pushPopNS, reschedNS float64) {
	var q eventq.Queue[uint64]
	rng := xorshift(0x9E3779B97F4A7C15)
	window := uint64(depth)
	handles := make([]eventq.Handle, depth)
	for i := range handles {
		handles[i] = q.Push(time.Duration(rng.next()%window), 0)
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		h := handles[i%depth]
		at, _ := q.When(h)
		q.Reschedule(h, at+time.Duration(rng.next()%window))
	}
	// When is a slab lookup; its cost is part of every timer re-arm too.
	reschedNS = perCallNS(n, time.Since(t0))

	t0 = time.Now()
	for i := 0; i < n; i++ {
		at, _, _ := q.Pop()
		q.Push(at+time.Duration(1+rng.next()%window), 0)
	}
	pushPopNS = perCallNS(n, time.Since(t0))
	return pushPopNS, reschedNS
}

type nopHandler struct{}

func (nopHandler) HandleEvent(uint64) {}

// probeKernel times AtHandler+Step with a no-op handler at the replay's
// depth, and a Kernel.Fork at that depth.
func probeKernel(n, depth int) (dispatchNS, forkUS float64) {
	k := sim.NewKernel()
	rng := xorshift(0x2545F4914F6CDD1D)
	window := uint64(depth)
	var h nopHandler
	for i := 0; i < depth; i++ {
		k.AtHandler(time.Duration(rng.next()%window), "probe", h, 0)
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		k.AtHandler(k.Now()+time.Duration(1+rng.next()%window), "probe", h, 0)
		k.Step()
	}
	dispatchNS = perCallNS(n, time.Since(t0))

	const forks = 20
	t0 = time.Now()
	for i := 0; i < forks; i++ {
		k.Fork()
	}
	forkUS = float64(time.Since(t0)) / forks / 1e3
	return dispatchNS, forkUS
}

// probeBarrier runs a two-kernel ShardGroup with nothing to exchange and one
// no-op event per kernel per epoch: wall time per epoch is the coordinator's
// own cost (two channel hops per shard).
func probeBarrier(epochs int) (barrierUS float64, err error) {
	const lookahead = time.Millisecond
	kernels := []*sim.Kernel{sim.NewKernel(), sim.NewKernel()}
	var h nopHandler
	for _, k := range kernels {
		for i := 0; i < epochs; i++ {
			k.AtHandler(time.Duration(i)*lookahead, "probe", h, 0)
		}
	}
	grp, err := sim.NewShardGroup(lookahead, kernels, sim.NopExchanger{})
	if err != nil {
		return 0, err
	}
	defer grp.Close()
	t0 := time.Now()
	if err := grp.Run(); err != nil {
		return 0, err
	}
	d := time.Since(t0)
	return float64(d) / float64(max(grp.Stats().Epochs, 1)) / 1e3, nil
}

// probeDamping times the exact engine's Update and TryReuse+ReuseIn, and the
// wheel engine's Update and per-state sweep cost, under Cisco parameters.
func probeDamping(n int) (exactUpdate, exactReuse, wheelUpdate, wheelSweep float64) {
	params := damping.Cisco()
	kinds := [2]damping.Kind{damping.KindWithdrawal, damping.KindReannouncement}

	s := damping.NewState(params)
	now := time.Duration(0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		now += time.Second
		s.Update(now, kinds[i&1], true)
	}
	exactUpdate = perCallNS(n, time.Since(t0))

	t0 = time.Now()
	for i := 0; i < n; i++ {
		now += time.Second
		if s.TryReuse(now) {
			// Lifted: charge it back over the cut-off so the loop keeps
			// timing the suppressed case (once per ~20 simulated minutes).
			for !s.Suppressed() {
				s.Update(now, damping.KindWithdrawal, true)
			}
		}
		s.ReuseIn(now)
	}
	exactReuse = perCallNS(n, time.Since(t0))

	w := damping.NewWheel(params, damping.WheelConfig{})
	ws := w.NewState(0)
	now = 0
	t0 = time.Now()
	for i := 0; i < n; i++ {
		now += time.Second
		ws.Update(now, kinds[i&1], true)
	}
	wheelUpdate = perCallNS(n, time.Since(t0))

	// Sweep: suppress `states` streams at once, then sweep tick by tick until
	// every one has been lifted.
	states := max(n/10, 100)
	sw := damping.NewWheel(params, damping.WheelConfig{})
	for i := 0; i < states; i++ {
		st := sw.NewState(uint64(i))
		for !st.Suppressed() {
			st.Update(0, damping.KindWithdrawal, true)
		}
	}
	now = 0
	t0 = time.Now()
	for sw.Enrolled() > 0 && now < 2*params.MaxHoldDown {
		now = sw.NextSweepAt(now)
		sw.Sweep(now, nil)
	}
	wheelSweep = perCallNS(states, time.Since(t0))
	return exactUpdate, exactReuse, wheelUpdate, wheelSweep
}

// probeRecording times the per-event recording calls: trace.Log.Append, and
// the EventSeries.Record+StepSeries.Record pair experiment's hooks make.
func probeRecording(n int) (appendNS, recordNS float64) {
	log := trace.NewLog(n)
	ev := trace.Event{Kind: trace.KindDeliver, Router: 1, Peer: 2, Prefix: "origin/8", Path: "2 7 9"}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		ev.At = time.Duration(i)
		log.Append(ev)
	}
	appendNS = perCallNS(n, time.Since(t0))

	var es metrics.EventSeries
	var ss metrics.StepSeries
	t0 = time.Now()
	for i := 0; i < n; i++ {
		es.Record(time.Duration(i))
		ss.Record(time.Duration(i), i&1023)
	}
	recordNS = perCallNS(n, time.Since(t0))
	return appendNS, recordNS
}

// runProbes fills the probe-backed layer metrics. depth is the maximum
// Kernel.Pending() the timed replay observed. A probe that cannot run is a
// failed check and leaves its metric unmeasured.
func runProbes(n, depth int, lm layerMetrics, checks *e2eRun) {
	lm["eventq.push_pop_ns"], lm["eventq.resched_ns"] = probeEventq(n, depth)
	lm["sim.dispatch_ns"], lm["sim.kernel_fork_us"] = probeKernel(n, depth)
	checks.attempted++
	if us, err := probeBarrier(max(n/10, 100)); err != nil {
		checks.fail("shard barrier probe: %v", err)
	} else {
		lm["sim.shard.barrier_us"] = us
	}
	lm["damping.exact.update_ns"], lm["damping.exact.reuse_ns"],
		lm["damping.wheel.update_ns"], lm["damping.wheel.sweep_ns_per_state"] = probeDamping(n)
	lm["trace.append_ns"], lm["metrics.record_ns"] = probeRecording(n)
}
