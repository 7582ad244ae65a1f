// Package experiment assembles the paper's simulation methodology
// (Section 5.1) on top of the bgp engine and regenerates every table and
// figure of the evaluation:
//
//   - a base topology (mesh or Internet-derived) with a randomly chosen
//     ispAS and an attached originAS (Figure 1);
//   - a warm-up phase in which every node learns a stable route, after
//     which damping state and counters are cleared;
//   - a pulse workload: n × (withdrawal, announcement) at a fixed flapping
//     interval, the final update always an announcement;
//   - measurement of convergence time (from the final announcement to the
//     last update observed) and message count (total updates delivered from
//     the first flap), plus the update series, damped-link-count series,
//     penalty traces and phase decomposition used by Figs 3, 7–10, 13–15.
package experiment

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"rfd/bgp"
	"rfd/check"
	"rfd/faults"
	"rfd/metrics"
	"rfd/sim"
	"rfd/topology"
	"rfd/trace"
)

// FlapPrefix is the destination originated by the originAS in every
// scenario.
const FlapPrefix = bgp.Prefix("origin/8")

// DefaultFlapInterval is the paper's flapping interval (Section 5.1).
const DefaultFlapInterval = 60 * time.Second

// PenaltyWatch selects one (router, peer) damping state whose penalty trace
// the run should record (Figs 3 and 7).
type PenaltyWatch struct {
	Router, Peer bgp.RouterID
}

// Scenario describes one simulation run. Graph is the base topology; Run
// clones it and attaches the originAS to ISP, so the caller's graph is never
// modified.
type Scenario struct {
	// Graph is the base topology (without the originAS).
	Graph *topology.Graph
	// ISP is the node the originAS attaches to.
	ISP topology.NodeID
	// Config is the protocol configuration for every router.
	Config bgp.Config
	// Pulses is the number of (withdrawal, announcement) pairs. Zero means
	// no flapping at all.
	Pulses int
	// FlapInterval separates consecutive flap events
	// (DefaultFlapInterval when zero).
	FlapInterval time.Duration
	// FlapViaLink, when true, flaps the physical originAS–ispAS link
	// (Network.SetLinkState) instead of toggling origination — the paper's
	// literal failure model. Both endpoints then stamp updates with link
	// root causes when RCN is enabled. The default origination toggle is
	// behaviourally equivalent and slightly cheaper. A link flap is a fault,
	// so it needs the sequential engine.
	FlapViaLink bool
	// Watch lists damping states whose penalty traces to record. Router IDs
	// refer to the base graph; use OriginID() for the attached origin.
	Watch []PenaltyWatch
	// Trace, when non-nil, records every flap-phase event into the log
	// (times are flap-relative, like all Result times). A sweep of a traced
	// scenario appends its points' flap phases to the log one after another,
	// in ascending pulse count, once every point has drained. Tracing needs
	// the sequential engine.
	Trace *trace.Log
	// Impair, when non-nil, is installed on the network after warm-up — a
	// fork of it, so the model itself is never consumed — and the flap phase
	// and drain run under message loss / delay jitter while the warm-up stays
	// clean. A lossy run may legitimately end with divergent RIBs (dropped
	// updates are never retransmitted), so the post-run consistency check is
	// fatal only when Impair is nil.
	Impair *faults.Impairments
	// Faults, when non-nil, is applied after warm-up with the first flap as
	// its epoch: every Event.At is relative to the same clock zero as the
	// Result times. Its faults are typed kernel events, so a sweep's points
	// branch off one flap trajectory with the plan's pending faults in it.
	//
	// A run with Impair or Faults drains under the convergence watchdog
	// (faults.Watch) instead of a bare kernel run: quiescent-instant
	// consistency checks, livelock diagnosis, and a FaultReport on the
	// Result. Both need the sequential engine.
	Faults *faults.Plan
	// Shards, when > 1, runs the scenario on the sharded engine: the run
	// topology is partitioned across Shards shard kernels coordinated by
	// conservative-lookahead epochs (sim.ShardGroup). The run path is the
	// same on both engines, and so is each network's one observer; only
	// where it hands its observations differs (a feed per network, merged by
	// time after the drain, rather than the recorder as they happen). The
	// Result is identical to a Shards<=1 run of the same scenario — the shard
	// count is an execution detail, not a simulation input, which is why
	// Fingerprint ignores it.
	//
	// A sharded scenario is one fresh run: Run, or a sweep of one pulse
	// count, on a new engine that never forks and takes no fault. Watch and
	// NoSeries work on it; Check, Impair, Faults, FlapViaLink and Trace are
	// refused, as are checkpoints and a sweep of several counts. No front
	// end sets Shards: only a Scenario built in Go reaches the sharded
	// engine.
	Shards int
	// Check, when true, runs the flap phase under the runtime invariant
	// checker (package check): a full RIB/timer/conservation sweep after
	// every event plus the differential damping oracle. Any violation fails
	// the run; the report lands on Result.Check either way. Checked runs are
	// several times slower — this is a debugging and CI mode, not a
	// measurement mode (the checker's own hooks do not perturb the
	// simulation, only wall-clock time).
	Check bool
	// NoSeries, when true, records the Result's scalars only: Updates,
	// Damped and NoisyReuseTimes stay nil, so nothing is kept per update
	// delivery. Every other field — ConvergenceTime, MessageCount,
	// MaxDamped, Phases, the reuse counts and the penalty traces Watch asks
	// for — is identical to a full run's. The simulation is unchanged, but a
	// NoSeries Result is a few hundred bytes where a full one holds every
	// delivery time, so Fingerprint tells the two apart.
	NoSeries bool
}

// OriginID returns the router ID the attached originAS will receive: the
// node appended to the base graph.
func (s Scenario) OriginID() bgp.RouterID {
	return bgp.RouterID(s.Graph.NumNodes())
}

// validate checks the scenario before running.
func (s Scenario) validate() error {
	if s.Graph == nil {
		return fmt.Errorf("experiment: nil graph")
	}
	if s.Graph.NumNodes() == 0 {
		return fmt.Errorf("experiment: empty graph")
	}
	if int(s.ISP) < 0 || int(s.ISP) >= s.Graph.NumNodes() {
		return fmt.Errorf("experiment: ISP %d out of range", s.ISP)
	}
	if s.Pulses < 0 {
		return fmt.Errorf("experiment: negative pulse count %d", s.Pulses)
	}
	if s.FlapInterval < 0 {
		return fmt.Errorf("experiment: negative flap interval %v", s.FlapInterval)
	}
	if err := s.validateSharded(); err != nil {
		return err
	}
	return s.Config.Validate()
}

// Result captures everything a single run measured.
type Result struct {
	// Pulses echoes the workload size.
	Pulses int
	// Origin and ISP are the router IDs in the run's (cloned) topology.
	Origin, ISP bgp.RouterID
	// FlapStart is the time of the first withdrawal and FlapEnd the time of
	// the final announcement. All Result times share one clock whose zero is
	// the first flap (so FlapStart is 0 whenever Pulses > 0), matching the
	// paper's figure axes.
	FlapStart, FlapEnd time.Duration
	// ConvergenceTime is the paper's metric: last update delivery minus
	// FlapEnd (zero when nothing followed the final announcement).
	ConvergenceTime time.Duration
	// MessageCount is the total number of updates delivered network-wide
	// from the first flap on.
	MessageCount int
	// Updates records every update delivery time (basis of Fig 10's 5 s
	// series); nil under Scenario.NoSeries, as are Damped and
	// NoisyReuseTimes.
	Updates *metrics.EventSeries
	// Damped tracks the number of suppressed (router, peer) states over
	// time (Fig 10's damped-link count).
	Damped *metrics.StepSeries
	// MaxDamped is the peak damped-link count.
	MaxDamped int
	// NoisyReuses / SilentReuses count reuse-timer outcomes (Section 4.2).
	NoisyReuses, SilentReuses int
	// NoisyReuseTimes records when noisy reuses fired (phase analysis).
	NoisyReuseTimes *metrics.EventSeries
	// Phases is the four-state decomposition of the episode.
	Phases metrics.Phases
	// OriginSuppressed reports whether the ispAS ever suppressed the origin
	// link during the flap phase.
	OriginSuppressed bool
	// PenaltyTraces holds the recorded traces for each Watch entry, keyed
	// as given.
	PenaltyTraces map[PenaltyWatch]*metrics.FloatSeries
	// EndTime is when the network fully drained (every in-flight update
	// delivered and every reuse timer fired), on the same flap-relative
	// clock.
	EndTime time.Duration
	// Dropped counts messages lost to impairments, session churn, and
	// crashes (zero in a fault-free run).
	Dropped uint64
	// FaultReport is the watchdog's verdict when the run had Impair or
	// Faults on one network, nil otherwise.
	FaultReport *faults.Report
	// Check is the invariant checker's report when Scenario.Check was set,
	// nil otherwise. A run with violations fails outright, so a non-nil
	// report here is always clean; it still carries the sweep/oracle
	// coverage counters.
	Check *check.Report
}

// Run executes the scenario and returns its measurements. The run is a pure
// function of the scenario (deterministic).
func Run(sc Scenario) (*Result, error) {
	return RunContext(context.Background(), sc)
}

// RunContext is Run under a supervising context: the kernel polls ctx at an
// amortized granularity (sim.StopCheckInterval events) during warm-up, the
// pulse loop and the drain, and a tripped context stops the run with a typed
// ErrCanceled or ErrBudgetExceeded. An un-tripped context changes nothing —
// the run stays byte-identical to Run(sc), because the cooperative stop check
// only reads the context and never touches simulation state.
//
// A run is a sweep of one pulse count without a cache (see
// RunCache.RunContext): it reports to the context's Progress hook, and a
// panic comes back as a *PanicError.
func RunContext(ctx context.Context, sc Scenario) (*Result, error) {
	return (*RunCache)(nil).RunContext(ctx, sc)
}

// wrapInterrupt maps a kernel/watchdog stop caused by the context into the
// package's typed error, and passes every other error through with the stage
// prefix.
func wrapInterrupt(ctx context.Context, stage string, err error) error {
	if ctx.Err() != nil && errors.Is(err, sim.ErrInterrupted) {
		return fmt.Errorf("experiment: %s: %w", stage, ctxErr(ctx))
	}
	return fmt.Errorf("experiment: %s: %w", stage, err)
}

// converge validates the scenario and executes its warm-up phase: build the
// run topology (base graph + originAS attached to the ispAS) on the engine
// sc.Shards selects — this is the only place that choice is made — originate
// the flap prefix and drain until every node has learned a stable route, then
// wipe damping state and counters (Section 5.1: "Before the simulation
// starts, every node learns a stable route to the originAS"). No hooks are
// installed, so nothing of the warm-up is observed. The returned engine is
// quiescent and ready for a flight — or for a fork, which is how sweeps
// amortize this phase across pulse counts. The caller owns it (close it).
func converge(ctx context.Context, sc Scenario) (engine, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}

	g := sc.Graph.Clone()
	origin := g.AddNode()
	if err := g.AddEdge(origin, sc.ISP); err != nil {
		return nil, fmt.Errorf("experiment: attach origin: %w", err)
	}
	if g.Annotated() {
		if err := g.SetRelationship(origin, sc.ISP, topology.RelProvider); err != nil {
			return nil, fmt.Errorf("experiment: annotate origin link: %w", err)
		}
	}

	var e engine
	if sc.Shards > 1 {
		assign, err := topology.Partition(g, sc.Shards)
		if err != nil {
			return nil, fmt.Errorf("experiment: partition: %w", err)
		}
		sn, err := bgp.NewShardedNetwork(g, sc.Config, assign)
		if err != nil {
			return nil, err
		}
		e = shardedEngine{sn}
	} else {
		n, err := bgp.NewNetwork(sim.NewKernel(), g, sc.Config)
		if err != nil {
			return nil, err
		}
		e = seqEngine{n}
	}

	e.Router(origin).Originate(FlapPrefix)
	if err := e.run(ctx); err != nil {
		e.close()
		return nil, wrapInterrupt(ctx, "warm-up", err)
	}
	e.ResetDamping()
	e.ResetCounters()
	return e, nil
}

// recorder fills a Result from a stream of observations, every time in it
// flap-relative. A flight's one observer per network hands it each observation
// as it happens on a single network, or parks it in that network's feed, which
// replay merges after the drain, on several. Every scalar is computed as the
// observations arrive, exactly as the series would yield it; the series
// themselves are kept only when series is set.
type recorder struct {
	res    *Result
	series bool
	// scan, when set, counts the network's damped links afresh at each flip,
	// and Damped records that count instead of the running one. A flight sets
	// it on the series path of one network only: bench's TestSmokeTraced
	// asserts experiment.self_s > 0, which only holds because of the full
	// RIB-IN scan (ROADMAP item 1).
	scan func() int

	// prev is the latest delivery before the instant of the latest one
	// (res.Phases.End), valid when hasPrev; charged says the first noisy reuse
	// found a delivery before it to end charging at.
	prev             time.Duration
	hasPrev, charged bool
	// damped is the running damped-link count, ±1 per suppression flip;
	// dampedAt is the instant of the last count recorded and dampedNow that
	// count, which a later flip at the same instant overwrites before it can
	// raise res.MaxDamped — the peak of Damped, whose last record of an
	// instant wins.
	damped, dampedNow int
	dampedAt          time.Duration
}

func newRecorder(sc Scenario) *recorder {
	res := &Result{
		Origin:        sc.OriginID(),
		ISP:           bgp.RouterID(sc.ISP),
		PenaltyTraces: make(map[PenaltyWatch]*metrics.FloatSeries, len(sc.Watch)),
	}
	if !sc.NoSeries {
		res.Updates = &metrics.EventSeries{}
		res.Damped = &metrics.StepSeries{}
		res.NoisyReuseTimes = &metrics.EventSeries{}
	}
	for _, w := range sc.Watch {
		res.PenaltyTraces[w] = &metrics.FloatSeries{}
	}
	return &recorder{res: res, series: !sc.NoSeries}
}

// clone returns a recorder over a deep copy of everything recorded so far.
func (rc *recorder) clone() *recorder {
	c := *rc
	res := *rc.res
	c.res = &res
	if rc.series {
		res.Updates = res.Updates.Clone()
		res.Damped = res.Damped.Clone()
		res.NoisyReuseTimes = res.NoisyReuseTimes.Clone()
	}
	res.PenaltyTraces = make(map[PenaltyWatch]*metrics.FloatSeries, len(rc.res.PenaltyTraces))
	for w, tr := range rc.res.PenaltyTraces {
		res.PenaltyTraces[w] = tr.Clone()
	}
	return &c
}

func (rc *recorder) deliver(at time.Duration) {
	res := rc.res
	if res.MessageCount > 0 && at > res.Phases.End {
		rc.prev, rc.hasPrev = res.Phases.End, true
	}
	res.Phases.End = at
	res.MessageCount++
	if rc.series {
		res.Updates.Record(at)
	}
}

// suppress records a suppression flip and the network-wide damped-link count
// after it.
func (rc *recorder) suppress(at time.Duration, router, peer bgp.RouterID, on bool) {
	if on {
		rc.damped++
	} else {
		rc.damped--
	}
	damped := rc.damped
	if rc.scan != nil {
		damped = rc.scan()
	}
	if at > rc.dampedAt {
		rc.res.MaxDamped = max(rc.res.MaxDamped, rc.dampedNow)
	}
	rc.dampedAt, rc.dampedNow = at, damped
	if rc.series {
		rc.res.Damped.Record(at, damped)
	}
	if on && router == rc.res.ISP && peer == rc.res.Origin {
		rc.res.OriginSuppressed = true
	}
}

// reuse records a reuse-timer outcome. The first noisy one starts the
// releasing phase, and charging ends at the last delivery strictly before it.
func (rc *recorder) reuse(at time.Duration, noisy bool) {
	res := rc.res
	if !noisy {
		res.SilentReuses++
		return
	}
	res.NoisyReuses++
	if rc.series {
		res.NoisyReuseTimes.Record(at)
	}
	if ph := &res.Phases; !ph.HasRelease {
		ph.HasRelease, ph.ReleaseStart = true, at
		switch {
		case res.MessageCount > 0 && ph.End < at:
			ph.ChargingEnd, rc.charged = ph.End, true
		case rc.hasPrev:
			ph.ChargingEnd, rc.charged = rc.prev, true
		}
	}
}

func (rc *recorder) penalty(at time.Duration, router, peer bgp.RouterID, penalty float64) {
	if tr, ok := rc.res.PenaltyTraces[PenaltyWatch{Router: router, Peer: peer}]; ok {
		tr.Record(at, penalty)
	}
}

// seal completes the scalars once the last observation is in: the peak
// damped count and the phases as metrics.ComputePhases defines them, with
// the convergence time they imply.
func (rc *recorder) seal() {
	res := rc.res
	res.MaxDamped = max(res.MaxDamped, rc.dampedNow)
	ph := &res.Phases
	switch {
	case res.MessageCount == 0:
		// No updates at all: everything collapses to the flap.
		*ph = metrics.Phases{ChargingEnd: res.FlapEnd, End: res.FlapEnd}
	case !ph.HasRelease:
		ph.ChargingEnd = ph.End
	case !rc.charged:
		ph.ChargingEnd = res.FlapEnd
	}
	ph.FlapStart, ph.FlapEnd = res.FlapStart, res.FlapEnd
	res.ConvergenceTime = ph.ConvergenceTime()
}

// obsKind labels an observation: which recorder method it feeds.
type obsKind uint8

const (
	obsDeliver obsKind = iota
	obsSuppress
	obsReuse
	obsPenalty
)

// observation is what one hook call leaves behind for the recorder: the
// arguments the recorder reads, nothing a trace would add.
type observation struct {
	at           time.Duration // flap-relative
	penalty      float64       // obsPenalty
	router, peer bgp.RouterID
	kind         obsKind
	flag         bool // obsSuppress: on; obsReuse: noisy
}

// record hands one observation to the recorder method of its kind.
func (rc *recorder) record(o observation) {
	switch o.kind {
	case obsDeliver:
		rc.deliver(o.at)
	case obsSuppress:
		rc.suppress(o.at, o.router, o.peer, o.flag)
	case obsReuse:
		rc.reuse(o.at, o.flag)
	case obsPenalty:
		rc.penalty(o.at, o.router, o.peer, o.penalty)
	}
}

// replay records the feeds merged by time. Each feed is already in time order
// (one kernel's clock), and ties go to the lowest feed: nothing in a Result
// depends on the order of observations within one instant — series of times
// are multisets, Damped and MaxDamped keep the last count recorded at an
// instant, the phases compare deliveries with a reuse strictly by time, and
// everything per router or per pair comes from a single feed. The damped
// count is a running ±1 over suppression flips — valid because damping state
// was reset at the epoch, so the count starts at zero.
func (rc *recorder) replay(feeds [][]observation) {
	for {
		next := -1
		for s, f := range feeds {
			if len(f) > 0 && (next < 0 || f[0].at < feeds[next][0].at) {
				next = s
			}
		}
		if next < 0 {
			return
		}
		rc.record(feeds[next][0])
		feeds[next] = feeds[next][1:]
	}
}

// flight is a run between its epoch and its Result: a converged engine with
// the observers and fault apparatus of one scenario installed, the recorder
// they feed, and the number of pulses flapped so far. A run is begin → pulseTo
// → finish; a sweep drives one flight through every pulse count it was asked
// for and forks it at each, so the n-pulse and (n+1)-pulse points share the
// simulation of their first n pulses (sweepTrunk).
type flight struct {
	sc    Scenario // sc.Pulses is not read: the caller says how far to pulse
	e     engine
	epoch time.Duration // engine time of the first flap; zero of every Result time
	rc    *recorder
	// feeds holds one observation feed per network when there are several
	// (replayed into rc by finish), each filled by its network's observer;
	// log is the trace log when sc.Trace is set (appended to it by finish).
	feeds [][]observation
	log   *trace.Log
	chk   *check.Checker
	// pulses counts the completed (withdrawal, announcement) pairs; between
	// pulseTo calls the engine stands at the instant right after the last
	// re-announcement (at the epoch when zero), or at the end of the interval
	// after it once advance has run that.
	pulses int
	// ran says advance has run the interval after the last re-announcement,
	// and dry that the events ran out inside it; quiet is then the engine
	// time the flight's drain ends at.
	ran, dry bool
	quiet    time.Duration
}

// begin turns a converged engine into a flight of sc: it installs the
// observers and brings the fault apparatus alive at the epoch. The engine is
// quiescent here, so nothing fires between installing the observers and the
// first withdrawal. begin takes ownership of e (closed on error).
func begin(sc Scenario, e engine) (*flight, error) {
	// All result times are relative to the first flap, matching the paper's
	// figure axes.
	f := &flight{sc: sc, e: e, epoch: e.now(), rc: newRecorder(sc)}
	nets := e.shards()
	if len(nets) > 1 {
		f.feeds = make([][]observation, len(nets))
	}

	// Fault injection: impairments and the fault plan come alive at the
	// epoch, after the clean warm-up, sharing the Result clock zero. The
	// network gets a fork of the impairment model, so the caller's is never
	// consumed. Impairments, fault plans, the trace and the checker need a
	// single network; validate refuses them on several.
	imp := sc.Impair
	if imp != nil {
		imp = imp.Fork()
		nets[0].SetImpairment(imp)
	}
	if sc.Faults != nil {
		if err := sc.Faults.Apply(nets[0], f.epoch, imp); err != nil {
			f.close()
			return nil, fmt.Errorf("experiment: fault plan: %w", err)
		}
	}
	if sc.Trace != nil {
		f.log = trace.NewLog(math.MaxInt)
	}
	f.observe()

	// The invariant checker attaches after the hooks and fault apparatus so
	// it observes (and chains to) the final observer configuration. Attaching
	// here — on a converged network with damping state just reset — is the
	// supported mode: every shadow damping stream starts in sync, and every
	// fork of the flight forks the checker with it.
	if sc.Check {
		chk, err := check.Attach(nets[0], check.Options{ISP: bgp.RouterID(sc.ISP), Origin: sc.OriginID(), Prefix: FlapPrefix})
		if err != nil {
			f.close()
			return nil, fmt.Errorf("experiment: invariant checker: %w", err)
		}
		f.chk = chk
	}
	return f, nil
}

// observe installs one observer on each of the flight's networks. One network
// hands its observations to the recorder as they happen, and to the trace log
// when the flight is traced. Several fire their hooks on worker goroutines,
// which must not share mutable state, so each appends to a feed of its own,
// replayed by finish.
func (f *flight) observe() {
	for s, n := range f.e.shards() {
		emit := f.rc.record
		if f.feeds != nil {
			feed := &f.feeds[s]
			emit = func(o observation) { *feed = append(*feed, o) }
		} else if f.rc.series {
			f.rc.scan = n.DampedLinkCount
		}
		var tr bgp.Hooks
		if f.log != nil {
			tr = bgp.TraceHooks(f.log)
		}
		n.SetHooks(f.observer(emit, tr))
	}
}

// observer is a network's one set of hooks. Each callback rebases its time to
// the epoch once, hands emit the observation and, when the flight is traced,
// forwards the rebased event to tr, the hooks of the network's trace log.
// Penalties are observed only when a pair is watched or the flight is traced,
// and only watched pairs reach emit.
func (f *flight) observer(emit func(observation), tr bgp.Hooks) bgp.Hooks {
	epoch, traced, watched := f.epoch, tr.OnDeliver != nil, f.rc.res.PenaltyTraces
	h := bgp.Hooks{
		OnDeliver: func(at time.Duration, msg bgp.Message) {
			at -= epoch
			emit(observation{at: at, kind: obsDeliver})
			if traced {
				tr.OnDeliver(at, msg)
			}
		},
		OnSuppress: func(at time.Duration, router, peer bgp.RouterID, pfx bgp.Prefix, on bool) {
			at -= epoch
			emit(observation{at: at, kind: obsSuppress, router: router, peer: peer, flag: on})
			if traced {
				tr.OnSuppress(at, router, peer, pfx, on)
			}
		},
		OnReuse: func(at time.Duration, router, peer bgp.RouterID, pfx bgp.Prefix, noisy bool) {
			at -= epoch
			emit(observation{at: at, kind: obsReuse, flag: noisy})
			if traced {
				tr.OnReuse(at, router, peer, pfx, noisy)
			}
		},
	}
	if len(watched) > 0 || traced {
		h.OnPenalty = func(at time.Duration, router, peer bgp.RouterID, pfx bgp.Prefix, penalty float64) {
			at -= epoch
			// Concurrent lookups are safe: nothing writes the map after newRecorder.
			if _, ok := watched[PenaltyWatch{Router: router, Peer: peer}]; ok {
				emit(observation{at: at, kind: obsPenalty, router: router, peer: peer, penalty: penalty})
			}
			if traced {
				tr.OnPenalty(at, router, peer, pfx, penalty)
			}
		}
	}
	return h
}

// fork returns an independent copy of the flight at this instant: a fork of
// the engine (in-flight messages, pending timers and stream positions
// included), a deep copy of everything recorded so far — the trace log and
// the invariant checker's shadow state too — and observers of its own feeding
// that copy. Only a sequential flight forks, so it has no feeds to copy.
func (f *flight) fork() (*flight, error) {
	e, err := f.e.fork()
	if err != nil {
		return nil, fmt.Errorf("experiment: flight fork: %w", err)
	}
	b := *f
	b.e = e
	b.rc = f.rc.clone()
	if f.log != nil {
		b.log = f.log.Clone()
	}
	b.observe()
	if f.chk != nil {
		b.chk = f.chk.Fork(e.shards()[0]) // after observe, as in begin
	}
	return &b, nil
}

// close releases the flight's checker and engine. Safe to call twice.
func (f *flight) close() {
	if f.chk != nil {
		f.chk.Detach()
	}
	f.e.close()
}

// flap applies one half of a pulse at the origin.
func (f *flight) flap(up bool) error {
	origin := f.sc.OriginID()
	switch {
	case f.sc.FlapViaLink:
		return f.e.shards()[0].SetLinkState(origin, bgp.RouterID(f.sc.ISP), up)
	case up:
		f.e.Router(origin).Originate(FlapPrefix)
	default:
		f.e.Router(origin).StopOriginating(FlapPrefix)
	}
	return nil
}

// interval is the time between consecutive flaps.
func (f *flight) interval() time.Duration {
	if f.sc.FlapInterval == 0 {
		return DefaultFlapInterval
	}
	return f.sc.FlapInterval
}

// watched reports whether the flight drains under the convergence watchdog.
func (f *flight) watched() bool { return f.sc.Impair != nil || f.sc.Faults != nil }

// pulseTo flaps until n pulses are complete — the one flap loop. Each pulse
// is a withdrawal, one interval of simulation and the re-announcement; one
// more interval separates it from the next, unless advance has run it
// already. It stops right after the n-th re-announcement, before anything
// that re-announcement causes has run, which is where an n-pulse run starts
// draining and an (n+1)-pulse run keeps flapping. FlapStart stays zero: the
// first withdrawal is the epoch.
func (f *flight) pulseTo(ctx context.Context, n int) error {
	interval := f.interval()
	for f.pulses < n {
		if f.pulses > 0 && !f.ran {
			if _, _, err := f.e.runUntil(ctx, f.e.now()+interval); err != nil {
				return wrapInterrupt(ctx, fmt.Sprintf("pulse %d", f.pulses), err)
			}
		}
		f.ran, f.dry = false, false
		i := f.pulses + 1
		if err := f.flap(false); err != nil {
			return fmt.Errorf("experiment: pulse %d down: %w", i, err)
		}
		if _, _, err := f.e.runUntil(ctx, f.e.now()+interval); err != nil {
			return wrapInterrupt(ctx, fmt.Sprintf("pulse %d", i), err)
		}
		if err := f.flap(true); err != nil {
			return fmt.Errorf("experiment: pulse %d up: %w", i, err)
		}
		f.rc.res.FlapEnd = f.e.now() - f.epoch
		f.pulses = i
	}
	return nil
}

// advance runs the interval after the last re-announcement now rather than
// at the next pulse, so that a copy of the flight taken from here on has it
// already: a sweep advances its trunk before it forks a point or parks it, and
// the interval is simulated once instead of once more in each copy's drain.
// The copy drains on from the interval's end, and pulseTo does not run the
// interval again. An (n+1)-pulse run withdraws there, and an n-pulse run
// drains through it: the two share it up to the withdrawal. If the events ran
// out inside it, the n-pulse drain would have stopped there, and finish ends
// the Result where they did. A flight at pulse 0 has no such interval, and a
// watched one (Impair or Faults) does not advance: its watchdog counts the
// interval's events and checks as part of the drain.
func (f *flight) advance(ctx context.Context) error {
	if f.ran || f.pulses == 0 || f.watched() {
		return nil
	}
	quiet, dry, err := f.e.runUntil(ctx, f.e.now()+f.interval())
	if err != nil {
		return wrapInterrupt(ctx, fmt.Sprintf("pulse %d", f.pulses), err)
	}
	f.ran, f.dry, f.quiet = true, dry, quiet
	return nil
}

// run flies the flight as sc: it pulses on to sc.Pulses — never fewer than it
// has flapped — and finishes into sc, whose trace log a sweep's branch records
// into instead of the trunk's. It closes the flight.
func (f *flight) run(ctx context.Context, sc Scenario) (*Result, error) {
	defer f.close()
	if sc.Pulses < f.pulses {
		return nil, fmt.Errorf("experiment: flight stands at pulse %d, past the %d asked of it", f.pulses, sc.Pulses)
	}
	f.sc = sc
	if err := f.pulseTo(ctx, sc.Pulses); err != nil {
		return nil, err
	}
	return f.finish(ctx)
}

// finish drains the flight and computes its Result — the only place one is
// filled.
func (f *flight) finish(ctx context.Context) (*Result, error) {
	sc, e, res := f.sc, f.e, f.rc.res
	res.Pulses = f.pulses

	// Drain: every in-flight update and every reuse timer fires within the
	// max hold-down horizon. A faulty run drains under the watchdog —
	// quiescent-instant consistency checks, and a livelock diagnosis when the
	// kernel's event budget runs out.
	watched := f.watched()
	if watched {
		res.FaultReport = faults.Watch(ctx, e.shards()[0])
		if err := watchErr(ctx, res.FaultReport); err != nil {
			return nil, err
		}
	} else if err := e.run(ctx); err != nil {
		return nil, wrapInterrupt(ctx, "drain", err)
	}
	if f.log != nil {
		appendTrace(sc.Trace, f.log)
	}
	if f.chk != nil {
		res.Check = f.chk.Finish()
		if err := res.Check.Err(); err != nil {
			return nil, fmt.Errorf("experiment: invariant check: %w", err)
		}
	}
	f.rc.replay(f.feeds)
	f.rc.seal()
	res.EndTime = e.now() - f.epoch
	if f.dry {
		res.EndTime = f.quiet - f.epoch
	}
	res.Dropped = e.Dropped()

	// The watchdog already ran the final consistency check (its verdict is
	// on the Result). Without one, run it here — but a lossy run may
	// legitimately diverge, so the failure is fatal only when no impairment
	// was configured.
	if watched {
		if res.FaultReport.Outcome == faults.Diverged && sc.Impair == nil {
			return nil, fmt.Errorf("experiment: post-run consistency: %w", res.FaultReport.Err)
		}
	} else if err := e.CheckConsistency(); err != nil && sc.Impair == nil {
		return nil, fmt.Errorf("experiment: post-run consistency: %w", err)
	}
	return res, nil
}

// watchErr maps a watched drain's report to the run's error: an abort is the
// context's typed stop (see wrapInterrupt), a livelock fails the run with the
// watchdog's diagnosis, and a converged or diverged drain lets it finish.
func watchErr(ctx context.Context, rep *faults.Report) error {
	switch rep.Outcome {
	case faults.Aborted:
		return wrapInterrupt(ctx, "drain", rep.Err)
	case faults.Livelock:
		return fmt.Errorf("experiment: drain: %s", rep)
	}
	return nil
}

// Checkpoint is a scenario's converged warm-up state: a fork of the converged
// sequential engine, parked and never run. Building one costs a single
// warm-up; Run then forks the checkpoint per measurement instead of
// re-converging from scratch, and a sweep forks it once for all its pulse
// counts, which is how both amortize warm-up. A Checkpoint is safe for
// concurrent Run calls — forking only reads the parked state, and each call
// runs its own independent copy. The sharded engine cannot fork, so neither
// NewCheckpointContext nor Run takes a scenario with Shards > 1.
type Checkpoint struct {
	parked engine
}

// NewCheckpointContext executes the scenario's warm-up once (exactly as Run
// would) under ctx and parks the converged state. Only the warm-up inputs
// matter here — the graph, ISP and Config; measurement-phase fields
// (Pulses, FlapInterval, Watch, Trace, Impair, Faults) take effect
// in Checkpoint.Run. A tripped context stops it with a typed ErrCanceled /
// ErrBudgetExceeded.
// The warm-up reports to the context's Progress hook (WithProgress):
// WarmupStarted before convergence begins, WarmupDone once it has converged —
// warm-up dominates the latency of small sweeps, so a streaming client must
// be able to see it.
func NewCheckpointContext(ctx context.Context, sc Scenario) (*Checkpoint, error) {
	if err := sc.checkpointable("NewCheckpointContext"); err != nil {
		return nil, err
	}
	e, err := warmUp(ctx, sc)
	if err != nil {
		return nil, err
	}
	defer e.close()
	parked, err := e.fork()
	if err != nil {
		return nil, fmt.Errorf("experiment: checkpoint: %w", err)
	}
	return &Checkpoint{parked: parked}, nil
}

// warmUp is the reported warm-up without the parking: it returns the converged
// engine itself, which the caller owns.
func warmUp(ctx context.Context, sc Scenario) (engine, error) {
	pr := progressFrom(ctx)
	pr.warmupStarted()
	e, err := converge(ctx, sc)
	if err != nil {
		return nil, err
	}
	pr.warmupDone()
	return e, nil
}

// Run forks the converged checkpoint and measures the scenario's flap phase
// on the fork, producing a Result identical to Run(sc) from scratch. sc must
// describe the same warm-up the checkpoint was built from (same Graph, ISP and
// Config); only the measurement-phase fields may differ between calls.
func (c *Checkpoint) Run(sc Scenario) (*Result, error) {
	return c.RunContext(context.Background(), sc)
}

// RunContext is Run with the measurement phase supervised by ctx, exactly as
// RunContext at package level: amortized cooperative stop checks, typed
// ErrCanceled / ErrBudgetExceeded, byte-identical results when the context
// never trips.
func (c *Checkpoint) RunContext(ctx context.Context, sc Scenario) (*Result, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	if err := sc.checkpointable("Checkpoint.Run"); err != nil {
		return nil, err
	}
	f, err := c.begin(sc)
	if err != nil {
		return nil, err
	}
	return f.run(ctx, sc)
}

// begin forks the parked engine and begins a flight of sc on the fork.
func (c *Checkpoint) begin(sc Scenario) (*flight, error) {
	e, err := c.parked.fork()
	if err != nil {
		return nil, fmt.Errorf("experiment: checkpoint fork: %w", err)
	}
	return begin(sc, e)
}
