package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"rfd/analytic"
	"rfd/bgp"
	"rfd/damping"
	"rfd/metrics"
	"rfd/topology"
)

// Options sizes the paper-figure experiments. DefaultOptions matches the
// paper (100-node mesh / Internet-derived topologies, 208 nodes for the
// policy study, pulses 0..10, 60 s flapping interval); tests shrink them.
type Options struct {
	// MeshRows and MeshCols size the torus (paper: 10×10 = 100 nodes).
	MeshRows, MeshCols int
	// InternetNodes sizes the Internet-derived topology for Figs 8/9/13/14.
	InternetNodes int
	// PolicyNodes sizes the Internet-derived topology for Fig 15.
	PolicyNodes int
	// MaxPulses is the largest pulse count swept (paper: 10).
	MaxPulses int
	// FlapInterval is the flapping interval (paper: 60 s).
	FlapInterval time.Duration
	// Seed drives topology generation and protocol randomness.
	Seed uint64
	// Workers bounds the number of simulations running at once in a figure's
	// sweeps — a sweep's trunk counts as one (runtime.NumCPU() when 0). Under
	// SharedBudget it bounds them across every figure built from the options.
	Workers int
	// Cache, when non-nil, dedupes identical runs across figures: scenarios
	// shared between figures (the undamped mesh baseline, the damped sweeps)
	// execute once and are served from cache afterwards.
	Cache *RunCache
	// Check runs every scenario under the runtime invariant checker
	// (Scenario.Check). Figures come out identical — the checker only
	// observes — but any invariant violation fails the figure loudly.
	Check bool
	// Ctx, when non-nil, supervises every run and sweep the figure executes:
	// cancelling it stops the figure with a typed ErrCanceled, a deadline
	// with ErrBudgetExceeded. Nil means context.Background(). An un-tripped
	// context leaves every figure byte-identical.
	Ctx context.Context

	// shared, set by SharedBudget, is the one budget every sweep and run made
	// through these options and their copies takes its tokens from; nil gives
	// each call a budget of its own.
	shared budget
}

// DefaultOptions returns the paper-scale settings.
func DefaultOptions() Options {
	return Options{
		MeshRows:      10,
		MeshCols:      10,
		InternetNodes: 100,
		PolicyNodes:   208,
		MaxPulses:     10,
		FlapInterval:  DefaultFlapInterval,
		Seed:          1,
	}
}

// SmallOptions returns the reduced scale every front end's -small means: a
// 5×5 mesh, 30- and 40-node Internet-derived topologies, pulses 0..4. It is
// also the scale of an rfdd sweep request that names no sizes.
func SmallOptions() Options {
	o := DefaultOptions()
	o.MeshRows, o.MeshCols = 5, 5
	o.InternetNodes = 30
	o.PolicyNodes = 40
	o.MaxPulses = 4
	return o
}

// workers resolves the worker bound.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

// SharedBudget returns o with one budget of o.Workers simulations
// (runtime.NumCPU() when 0) that every sweep and run made through the result,
// or through a copy of it, takes its tokens from. Figures generated
// concurrently from it run no more simulations at once between them than one
// figure alone may; without it each sweep and run is bounded on its own.
func (o Options) SharedBudget() Options {
	o.shared = newBudget(o.workers())
	return o
}

// tokens returns the budget a sweep or run draws on: the shared one, else a
// fresh one of n tokens for this call alone.
func (o Options) tokens(n int) budget {
	if o.shared != nil {
		return o.shared
	}
	return newBudget(n)
}

// ctx resolves the supervising context.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// sweep runs a pulse sweep under the options' context, budget and cache.
func (o Options) sweep(base Scenario, pulses []int) ([]SweepPoint, error) {
	return o.Cache.sweep(o.ctx(), base, pulses, o.tokens(o.workers()))
}

// sweeps runs the same pulse sweep of several scenarios at once, all under
// the one budget, so that a figure made of independent sweeps waits for
// their total work spread over the workers rather than for each sweep's trunk
// in turn. The points come back in the order of bases; the error is that of
// the first sweep, in that order, that failed.
func (o Options) sweeps(pulses []int, bases ...Scenario) ([][]SweepPoint, error) {
	b := o.tokens(o.workers())
	pts := make([][]SweepPoint, len(bases))
	errs := make([]error, len(bases))
	var wg sync.WaitGroup
	for i, base := range bases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pts[i], errs[i] = o.Cache.sweep(o.ctx(), base, pulses, b)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return pts, nil
}

// run executes one scenario through the options' cache (a nil cache runs it)
// under one token of the options' budget.
func (o Options) run(sc Scenario) (*Result, error) {
	return o.Cache.run(o.ctx(), sc, o.tokens(1))
}

// baseConfig returns the protocol configuration shared by all runs.
func (o Options) baseConfig() bgp.Config {
	cfg := bgp.DefaultConfig()
	cfg.Seed = o.Seed
	return cfg
}

// dampingConfig returns baseConfig with Cisco-default damping enabled
// ("full damping": every router damps, Section 5.1).
func (o Options) dampingConfig() bgp.Config {
	cfg := o.baseConfig()
	params := damping.Cisco()
	cfg.Damping = &params
	return cfg
}

// rcnConfig returns dampingConfig with RCN-enhanced damping.
func (o Options) rcnConfig() bgp.Config {
	cfg := o.dampingConfig()
	cfg.EnableRCN = true
	return cfg
}

// scenario builds the base scenario on the topology sh describes, with the
// originAS at the shape's default ispAS. Every figure and the Labovitz events
// get their graph here. It records no series (Scenario.NoSeries): every
// figure but Fig 10 reads scalars only, and Fig10 asks for them again.
func (o Options) scenario(sh topology.Shape, cfg bgp.Config) (Scenario, error) {
	sc, err := o.scenarioFrom(sh, cfg, topology.Shape.Generate)
	sc.NoSeries = true
	return sc, err
}

// scenarioFrom is the one place a Scenario is assembled from options, a shape
// and a configuration. graph is handed the canonical shape — exactly what the
// generator reads, so a correct key for a graph kept from an earlier call.
func (o Options) scenarioFrom(sh topology.Shape, cfg bgp.Config, graph func(topology.Shape) (*topology.Graph, error)) (Scenario, error) {
	sh, err := sh.Canonical()
	if err != nil {
		return Scenario{}, err
	}
	g, err := graph(sh)
	if err != nil {
		return Scenario{}, err
	}
	return Scenario{Graph: g, ISP: sh.DefaultISP(), Config: cfg, FlapInterval: o.FlapInterval, Check: o.Check}, nil
}

// meshScenario builds the torus scenario.
func (o Options) meshScenario(cfg bgp.Config) (Scenario, error) {
	return o.scenario(topology.Shape{Rows: o.MeshRows, Cols: o.MeshCols}, cfg)
}

// internetScenario builds the Internet-derived scenario with the given node
// count and policy.
func (o Options) internetScenario(cfg bgp.Config, nodes int, policy bgp.Policy) (Scenario, error) {
	cfg.Policy = policy
	return o.scenario(topology.Shape{Family: "internet", Nodes: nodes, Seed: o.Seed}, cfg)
}

// DaemonScenario builds a base scenario from names alone, sized by o
// (MeshRows×MeshCols, InternetNodes, Seed): the Spec of a request that names
// no sizes. Every call generates its topology afresh.
func DaemonScenario(o Options, topo, damp string, rcn bool) (Scenario, error) {
	sc, _, err := Spec{Topology: topo, Damping: damp, RCN: rcn}.Scenario(o, topology.Shape.Generate)
	return sc, err
}

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

// Table1Row is one row of the paper's Table 1.
type Table1Row struct {
	Parameter      string
	Cisco, Juniper string
}

// Table1 returns the default damping parameters exactly as Table 1 lists
// them.
func Table1() []Table1Row {
	c, j := damping.Cisco(), damping.Juniper()
	f := func(v float64) string { return fmt.Sprintf("%.0f", v) }
	m := func(d time.Duration) string { return fmt.Sprintf("%.0f", d.Minutes()) }
	return []Table1Row{
		{"Withdrawal Penalty (PW)", f(c.WithdrawalPenalty), f(j.WithdrawalPenalty)},
		{"Re-announcement Penalty (PA)", f(c.ReannouncementPenalty), f(j.ReannouncementPenalty)},
		{"Attributes Change Penalty", f(c.AttrChangePenalty), f(j.AttrChangePenalty)},
		{"Cut-off Threshold (Pcut)", f(c.CutoffThreshold), f(j.CutoffThreshold)},
		{"Half Life (minute) (H)", m(c.HalfLife), m(j.HalfLife)},
		{"Reuse Threshold (Preuse)", f(c.ReuseThreshold), f(j.ReuseThreshold)},
		{"Max Hold-down Time (minute)", m(c.MaxHoldDown), m(j.MaxHoldDown)},
	}
}

// ---------------------------------------------------------------------------
// Figure 3 — example penalty curve
// ---------------------------------------------------------------------------

// Fig3Data is the analytic penalty trace of Figure 3: a router's penalty
// responding to a few flaps under Cisco default parameters, against the
// cut-off and reuse thresholds.
type Fig3Data struct {
	Trace           []analytic.PenaltyTracePoint
	Cutoff, Reuse   float64
	SuppressedSince time.Duration // first instant above the cut-off
	ReusedAt        time.Duration // when the reuse timer would fire
}

// Fig3 computes the Figure 3 trace: three quick pulses at the paper's 60 s
// interval, observed for 44 minutes (the figure's 2640 s x-axis).
func Fig3(o Options) (*Fig3Data, error) {
	params := damping.Cisco()
	events := analytic.PulseTrain(3, o.FlapInterval)
	trace, err := analytic.PenaltyTrace(params, events, 2640*time.Second, 10*time.Second)
	if err != nil {
		return nil, err
	}
	data := &Fig3Data{
		Trace:  trace,
		Cutoff: params.CutoffThreshold,
		Reuse:  params.ReuseThreshold,
	}
	pred, err := analytic.Predict(params, events, 0)
	if err != nil {
		return nil, err
	}
	if pred.Suppressed {
		last := events[len(events)-1].At
		data.ReusedAt = last + pred.ReuseDelay
	}
	for _, p := range trace {
		if p.Penalty > params.CutoffThreshold {
			data.SuppressedSince = p.At
			break
		}
	}
	return data, nil
}

// ---------------------------------------------------------------------------
// Figure 7 — secondary charging penalty trace
// ---------------------------------------------------------------------------

// Fig7Data is the simulated penalty trace at a router 7 hops from the
// flapping origin after a single pulse with full damping: path exploration
// charges the penalty over the cut-off, then secondary charging pushes it up
// again each time other routers' reuse timers fire (Section 4.2).
type Fig7Data struct {
	// Watched identifies the (router, peer) whose trace is reported.
	Watched PenaltyWatch
	// Trace holds the penalty value after each charging update.
	Trace []analytic.PenaltyTracePoint
	// Recharges counts penalty increments that arrived while suppressed —
	// the secondary-charging events.
	Recharges int
	// Cutoff and Reuse are the thresholds, for plotting.
	Cutoff, Reuse float64
	// Result is the full run measurement.
	Result *Result
}

// Fig7 runs the single-pulse mesh scenario and records the damping penalty
// at a router 7 hops from the origin (as in the paper's Figure 7).
func Fig7(o Options) (*Fig7Data, error) {
	sc, err := o.meshScenario(o.dampingConfig())
	if err != nil {
		return nil, err
	}
	// 7 hops from the origin = 6 hops from the ispAS (+1 for the origin
	// link). Watch every peer of every such router and report the richest
	// trace. On meshes smaller than the paper's, fall back to the farthest
	// routers available.
	hops := 6
	if ecc := sc.Graph.Eccentricity(sc.ISP); ecc < hops {
		hops = ecc
	}
	candidates := sc.Graph.NodesAtDistance(sc.ISP, hops)
	if len(candidates) == 0 {
		return nil, fmt.Errorf("experiment: no router %d hops from ispAS on this mesh", hops)
	}
	for _, router := range candidates {
		for _, peer := range sc.Graph.Neighbors(router) {
			sc.Watch = append(sc.Watch, PenaltyWatch{Router: router, Peer: peer})
		}
	}
	sc.Pulses = 1
	res, err := o.run(sc)
	if err != nil {
		return nil, err
	}
	params := damping.Cisco()
	best := &Fig7Data{Cutoff: params.CutoffThreshold, Reuse: params.ReuseThreshold, Result: res}
	bestScore := -1
	var bestJumps []metrics.FloatPoint
	// Iterate in sc.Watch order, not map order: score ties must break
	// deterministically (the report names the winning pair).
	for _, w := range sc.Watch {
		tr, ok := res.PenaltyTraces[w]
		if !ok {
			continue
		}
		pts := tr.Points()
		if len(pts) == 0 {
			continue
		}
		// Score: the paper's Figure 7 trace (a) charges over the cut-off
		// during the initial charging phase and (b) is re-charged repeatedly
		// long after the flap (secondary charging).
		if pts[0].At > res.Phases.ChargingEnd+time.Minute {
			continue // did not participate in initial charging
		}
		score := 0
		for _, p := range pts {
			if p.Value > params.CutoffThreshold {
				score++
			}
			if p.At > res.FlapEnd+10*time.Minute {
				score += 2 // secondary charging long after the flap
			}
		}
		if score > bestScore {
			bestScore = score
			best.Watched = w
			bestJumps = pts
		}
	}
	if bestJumps == nil {
		// Fall back to the longest trace (tiny test topologies), again in
		// deterministic sc.Watch order.
		for _, w := range sc.Watch {
			if tr, ok := res.PenaltyTraces[w]; ok && tr.Len() > len(bestJumps) {
				best.Watched = w
				bestJumps = tr.Points()
			}
		}
	}
	best.Trace = expandSawtooth(params, bestJumps, res.EndTime, 10*time.Second)
	// Count recharges: increments after the charging phase ended.
	for _, p := range bestJumps {
		if p.At > res.Phases.ChargingEnd {
			best.Recharges++
		}
	}
	return best, nil
}

// expandSawtooth turns the post-update penalty jump points into a plottable
// curve by inserting exponential-decay samples between them.
func expandSawtooth(params damping.Params, jumps []metrics.FloatPoint, horizon, spacing time.Duration) []analytic.PenaltyTracePoint {
	var out []analytic.PenaltyTracePoint
	for i, j := range jumps {
		out = append(out, analytic.PenaltyTracePoint{At: j.At, Penalty: j.Value})
		end := horizon
		if i+1 < len(jumps) {
			end = jumps[i+1].At
		}
		for t := j.At + spacing; t < end; t += spacing {
			out = append(out, analytic.PenaltyTracePoint{
				At:      t,
				Penalty: params.Decay(j.Value, t-j.At),
			})
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Figures 8, 9, 13, 14 — convergence time and message count vs. pulses
// ---------------------------------------------------------------------------

// EvalRow is one pulse count's worth of the paper's headline comparison.
// Durations are virtual seconds; counts are update messages.
type EvalRow struct {
	Pulses int
	// NoDampingMeshConv / NoDampingMeshMsgs: plain BGP on the mesh.
	NoDampingMeshConv time.Duration
	NoDampingMeshMsgs int
	// DampingMeshConv / DampingMeshMsgs: full damping on the mesh.
	DampingMeshConv time.Duration
	DampingMeshMsgs int
	// DampingInternetConv / DampingInternetMsgs: full damping on the
	// Internet-derived topology.
	DampingInternetConv time.Duration
	DampingInternetMsgs int
	// RCNMeshConv / RCNMeshMsgs: RCN-enhanced damping on the mesh
	// (Figs 13/14).
	RCNMeshConv time.Duration
	RCNMeshMsgs int
	// CalcConv is the intended behaviour (Section 3 calculation).
	CalcConv time.Duration
}

// EvalData carries the full sweep behind Figs 8, 9, 13 and 14, plus the
// critical point Nh at which measured damping convergence first falls within
// 10 % of the calculation (the muffling-dominance point; the paper reports
// Nh = 5 for its setup).
type EvalData struct {
	Rows []EvalRow
	Nh   int
}

// Eval runs the four sweeps (no damping, damping mesh, damping Internet,
// RCN mesh) and evaluates the analytic curve, producing the data behind
// Figures 8, 9, 13 and 14 in one pass.
func Eval(o Options) (*EvalData, error) {
	pulses := PulseRange(0, o.MaxPulses)

	meshPlain, err := o.meshScenario(o.baseConfig())
	if err != nil {
		return nil, err
	}
	meshDamp, err := o.meshScenario(o.dampingConfig())
	if err != nil {
		return nil, err
	}
	meshRCN, err := o.meshScenario(o.rcnConfig())
	if err != nil {
		return nil, err
	}
	inetDamp, err := o.internetScenario(o.dampingConfig(), o.InternetNodes, bgp.ShortestPath)
	if err != nil {
		return nil, err
	}

	pts, err := o.sweeps(pulses, meshPlain, meshDamp, meshRCN, inetDamp)
	if err != nil {
		return nil, err
	}
	plain, damp, rcnRes, inet := pts[0], pts[1], pts[2], pts[3]

	// t_up for the calculation: the measured no-damping convergence of a
	// single pulse (ordinary BGP up-convergence).
	tup := time.Duration(0)
	if len(plain) > 1 {
		tup = plain[1].Result.ConvergenceTime
	}

	data := &EvalData{Rows: make([]EvalRow, len(pulses))}
	for i, n := range pulses {
		calc, err := o.intended(n, tup)
		if err != nil {
			return nil, err
		}
		data.Rows[i] = EvalRow{
			Pulses:              n,
			NoDampingMeshConv:   plain[i].Result.ConvergenceTime,
			NoDampingMeshMsgs:   plain[i].Result.MessageCount,
			DampingMeshConv:     damp[i].Result.ConvergenceTime,
			DampingMeshMsgs:     damp[i].Result.MessageCount,
			DampingInternetConv: inet[i].Result.ConvergenceTime,
			DampingInternetMsgs: inet[i].Result.MessageCount,
			RCNMeshConv:         rcnRes[i].Result.ConvergenceTime,
			RCNMeshMsgs:         rcnRes[i].Result.MessageCount,
			CalcConv:            calc,
		}
	}
	data.Nh = criticalPoint(data.Rows)
	return data, nil
}

// intended returns the Section 3 intended convergence time for n pulses at
// o.FlapInterval after t_up: the single-router calculation with Cisco
// defaults, the curve Eval, Fig15 and FilterComparison set the measurements
// against.
func (o Options) intended(n int, tup time.Duration) (time.Duration, error) {
	pred, err := analytic.PredictPulses(damping.Cisco(), n, o.FlapInterval, tup)
	if err != nil {
		return 0, err
	}
	return pred.Convergence, nil
}

// criticalPoint finds the smallest pulse count >= 1 from which onward the
// measured mesh damping convergence stays within 10 % (or 60 s) of the
// calculation — the paper's Nh.
func criticalPoint(rows []EvalRow) int {
	matches := func(r EvalRow) bool {
		diff := r.DampingMeshConv - r.CalcConv
		if diff < 0 {
			diff = -diff
		}
		tol := time.Duration(float64(r.CalcConv) * 0.10)
		if tol < time.Minute {
			tol = time.Minute
		}
		return diff <= tol
	}
	for i := 0; i < len(rows); i++ {
		if rows[i].Pulses == 0 {
			continue
		}
		all := true
		for j := i; j < len(rows); j++ {
			if !matches(rows[j]) {
				all = false
				break
			}
		}
		if all {
			return rows[i].Pulses
		}
	}
	return -1
}

// ---------------------------------------------------------------------------
// Figure 10 — update series and damped-link count for n = 1, 3, 5
// ---------------------------------------------------------------------------

// Fig10Data bundles the three runs of Figure 10. Each Result carries the
// update series (bin with Updates.Bins, the paper uses 5 s bins) and the
// damped-link count step series.
type Fig10Data struct {
	// Runs maps the pulse count (1, 3, 5) to its result.
	Runs map[int]*Result
	// BinWidth is the paper's series resolution.
	BinWidth time.Duration
}

// Fig10 runs the mesh damping scenario for n = 1, 3 and 5 pulses.
func Fig10(o Options) (*Fig10Data, error) {
	sc, err := o.meshScenario(o.dampingConfig())
	if err != nil {
		return nil, err
	}
	sc.NoSeries = false // the one figure that plots series
	points, err := o.sweep(sc, []int{1, 3, 5})
	if err != nil {
		return nil, err
	}
	data := &Fig10Data{Runs: make(map[int]*Result, 3), BinWidth: 5 * time.Second}
	for _, p := range points {
		data.Runs[p.Pulses] = p.Result
	}
	return data, nil
}

// ---------------------------------------------------------------------------
// Figure 15 — impact of routing policy
// ---------------------------------------------------------------------------

// Fig15Row is one pulse count of the policy comparison.
type Fig15Row struct {
	Pulses       int
	WithPolicy   time.Duration // no-valley policy convergence
	NoPolicy     time.Duration // shortest-path convergence
	Intended     time.Duration // Section 3 calculation
	PolicyMsgs   int
	NoPolicyMsgs int
}

// Fig15Data is the Figure 15 dataset: damping convergence with and without
// the no-valley routing policy on the Internet-derived topology.
type Fig15Data struct {
	Rows  []Fig15Row
	Nodes int
}

// Fig15 runs the Section 7 policy study on the PolicyNodes-sized
// Internet-derived topology.
func Fig15(o Options) (*Fig15Data, error) {
	pulses := PulseRange(0, o.MaxPulses)
	withPolicy, err := o.internetScenario(o.dampingConfig(), o.PolicyNodes, bgp.NoValley)
	if err != nil {
		return nil, err
	}
	noPolicy, err := o.internetScenario(o.dampingConfig(), o.PolicyNodes, bgp.ShortestPath)
	if err != nil {
		return nil, err
	}
	pts, err := o.sweeps(pulses, withPolicy, noPolicy)
	if err != nil {
		return nil, err
	}
	polRes, plainRes := pts[0], pts[1]
	// t_up for the calculation: ordinary (undamped) BGP up-convergence on
	// the same topology.
	undamped := withPolicy
	undamped.Config = o.baseConfig()
	undamped.Config.Policy = bgp.NoValley
	undamped.Pulses = 1
	plain1, err := o.run(undamped)
	if err != nil {
		return nil, err
	}
	tup := plain1.ConvergenceTime
	data := &Fig15Data{Nodes: o.PolicyNodes, Rows: make([]Fig15Row, len(pulses))}
	for i, n := range pulses {
		calc, err := o.intended(n, tup)
		if err != nil {
			return nil, err
		}
		data.Rows[i] = Fig15Row{
			Pulses:       n,
			WithPolicy:   polRes[i].Result.ConvergenceTime,
			NoPolicy:     plainRes[i].Result.ConvergenceTime,
			Intended:     calc,
			PolicyMsgs:   polRes[i].Result.MessageCount,
			NoPolicyMsgs: plainRes[i].Result.MessageCount,
		}
	}
	return data, nil
}
