package main

import (
	"fmt"
	"io"
	"strings"
)

// Values the traced run keeps for the budget table that are not per-layer
// metrics of their own. The "~" prefix cannot occur in a metric name.
const (
	keySetupS      = "~replay.setup_s"  // graph clone + bgp.NewNetwork, bare replay
	keyPlainRunS   = "~replay.plain_s"  // warm-up + engine, bare replay
	keyHookedRunS  = "~replay.hooked_s" // warm-up + engine, replay under timing hooks
	keyFlapUpdates = "~replay.flap_updates"
	reqGraphBuild  = "~req.graph_build_us"
	reqFingerprint = "~req.fingerprint_us"
	reqCacheHit    = "~req.cache_hit_us"
	reqPoolHit     = "~req.pool_hit_us"
	reqForkRun0    = "~req.fork_run0_us"
)

type budgetRow struct {
	name    string
	seconds float64
}

// printRows renders rows as host time per unit (in the given sub-unit of a
// second) and share of total, and returns the most expensive one.
func printRows(w io.Writer, rows []budgetRow, total, units float64, unit string, perSecond float64) budgetRow {
	var top budgetRow
	for _, r := range rows {
		fmt.Fprintf(w, "  %-50s %12.1f %-10s %5.1f%%\n", r.name, r.seconds*perSecond/units, unit, 100*r.seconds/total)
		if r.seconds > top.seconds {
			top = r
		}
	}
	return top
}

// printBudget prints where the host time of the workload's traced scenario
// went, and names the most expensive row. Measured rows partition their root
// span; estimated rows (probe ns x exact count) sit inside measured ones and
// are listed apart so nothing is counted twice.
func printBudget(w io.Writer, workload string, lm layerMetrics) {
	delivered := lm["bgp.delivered"]
	if delivered == 0 {
		return
	}
	fmt.Fprintf(w, "\nlatency budget, %s: host time per delivered update (%.0f updates, warm-up included)\n", workload, delivered)

	// The timing hooks add a time.Now pair per event; scale what they saw
	// back to the bare replay.
	scale := 1.0
	if lm[keyHookedRunS] > 0 {
		scale = lm[keyPlainRunS] / lm[keyHookedRunS]
	}
	handler := func(ev string) float64 { return lm["bgp."+ev+"_ns"] * lm["bgp."+ev+"_events"] / 1e9 * scale }
	deliver, mrai, reuse := handler("deliver"), handler("mrai"), handler("reuse")
	run := lm["experiment.run_s"]
	fmt.Fprintf(w, " sequential engine, measured (rows partition the experiment.Run span, %.4f s):\n", run)
	seq := []budgetRow{
		{"topology clone + bgp.NewNetwork", lm[keySetupS]},
		{"bgp deliver handlers", deliver},
		{"bgp mrai handlers", mrai},
		{"bgp reuse handlers", reuse},
		{"sim kernel loop (eventq pop + dispatch)", lm[keyPlainRunS] - deliver - mrai - reuse},
		{"experiment self (Result bookkeeping)", lm["experiment.self_s"]},
	}
	topSeq := printRows(w, seq, run, delivered, "ns/update", 1e9)

	events := lm["sim.events"]
	fmt.Fprintln(w, " leaf layers, estimated as probe ns x exact count (inside the rows above):")
	printRows(w, []budgetRow{
		{"eventq push+pop", events * lm["eventq.push_pop_ns"] / 1e9},
		{"sim dispatch self", events * (lm["sim.dispatch_ns"] - lm["eventq.push_pop_ns"]) / 1e9},
		{"damping exact update + reuse", (lm["damping.updates"]*lm["damping.exact.update_ns"] + lm["bgp.reuse_events"]*lm["damping.exact.reuse_ns"]) / 1e9},
		{"metrics record (in experiment self)", lm[keyFlapUpdates] * lm["metrics.record_ns"] / 1e9},
		{"experiment bookkeeping replay (in experiment self)", lm["experiment.bookkeeping_s"]},
	}, run, delivered, "ns/update", 1e9)

	shRun := lm["experiment.sharded.run_s"]
	barrier := lm["sim.shard.epochs"] * lm["sim.shard.barrier_us"] / 1e6
	appendS := lm["trace.events"] * lm["trace.append_ns"] / 1e9
	mergeS := lm["trace.merge_ms"] / 1e3
	fmt.Fprintf(w, " sharded engine, shards=2 (rows partition the experiment.Run span, %.4f s; barrier, append and merge are estimates):\n", shRun)
	engine := lm["bgp.sharded.engine_s"]
	shSelf := lm["experiment.sharded.self_s"]
	sharded := []budgetRow{
		{"shard barrier (epochs x coordinator cost)", min(barrier, engine)},
		{"bgp sharded engine less barriers", max(engine-barrier, 0)},
		{"partition, NewShardedNetwork, warm-up", shRun - engine - shSelf},
		{"trace append", min(appendS, shSelf)},
		{"trace merge", min(mergeS, max(shSelf-appendS, 0))},
		{"experiment self less trace (reconstructResult)", max(shSelf-appendS-mergeS, 0)},
	}
	topSharded := printRows(w, sharded, shRun, delivered, "ns/update", 1e9)

	top := topSeq
	switch workload {
	case wInetShard2:
		top = topSharded
	case wPaperFigs:
		fmt.Fprintf(w, " one rfdfig op (in-process figure pass + process overhead):\n")
		var rows []budgetRow
		total := 0.0
		for _, st := range figSteps {
			s := lm["experiment.fig."+st.name+"_s"]
			rows = append(rows, budgetRow{"experiment.fig." + st.name, s})
			total += s
		}
		rows = append(rows, budgetRow{"rfdfig process overhead", lm["rfdfig.proc_overhead_ms"] / 1e3})
		total += lm["rfdfig.proc_overhead_ms"] / 1e3
		top = printRows(w, rows, total, 1, "ms/op", 1e3)
	case wRfddMix:
		cw := lm["cachewarm_s_p50"]
		fmt.Fprintf(w, " one cache-warm request (rows partition cachewarm_s_p50, %.6f s):\n", cw)
		top = printRows(w, []budgetRow{
			{"graph build from the request shape", lm[reqGraphBuild] / 1e6},
			{"fingerprint", lm[reqFingerprint] / 1e6},
			{"cache lookup (hit less its fingerprint)", max(lm[reqCacheHit]-lm[reqFingerprint], 0) / 1e6},
			{"HTTP + JSON decode/encode", lm["rfdd.http_overhead_us"] / 1e6},
		}, cw, 1, "us/request", 1e6)
		fmt.Fprintln(w, " what the other classes add per request (in-process and streamed medians):")
		printRows(w, []budgetRow{
			{"pool hit, fingerprint included (snapshot-warm)", lm[reqPoolHit] / 1e6},
			{"fork + measure floor (per live point)", lm[reqForkRun0] / 1e6},
			{"simulate one point (streamed)", lm["rfdd.point_ms"] / 1e3},
			{"warm-up (cold only, streamed)", lm["rfdd.warmup_ms"] / 1e3},
			{"tail after the last point (streamed)", lm["rfdd.encode_tail_ms"] / 1e3},
		}, lm["cold_s_p50"], 1, "us/request", 1e6)
	}
	fmt.Fprintf(w, "most expensive layer, %s: %s (%.4g s)\n", workload, strings.TrimSpace(top.name), top.seconds)
}
