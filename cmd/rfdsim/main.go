// Command rfdsim runs a single route-flap-damping simulation and prints its
// measurements: convergence time, message count, damped-link peak, reuse
// statistics and the four-state phase decomposition.
//
// Examples:
//
//	rfdsim -pulses 1                          # paper mesh, single pulse, Cisco damping
//	rfdsim -pulses 5 -rcn                     # RCN-enhanced damping
//	rfdsim -topology internet -nodes 208 -policy novalley -pulses 3
//	rfdsim -damping off -pulses 3             # plain BGP baseline
//	rfdsim -pulses 3 -loss 0.01 -jitter 5ms   # 1% message loss, 5ms delay jitter
//	rfdsim -pulses 1 -faults plan.txt         # scripted faults (see faults.ParsePlan)
//	rfdsim -pulses 5 -cpuprofile cpu.out      # profile the run (go tool pprof cpu.out)
//	rfdsim -topology caida:as-rel.txt -pulses 1   # CAIDA AS-relationship import
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"rfd/bgp"
	"rfd/experiment"
	"rfd/faults"
	"rfd/internal/cli"
	"rfd/topology"
	"rfd/trace"
)

func main() { cli.Main("rfdsim", run) }

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("rfdsim", flag.ContinueOnError)
	var (
		topo      = fs.String("topology", "mesh", "topology family: mesh | internet | waxman | tiered | ring | line | star | fullmesh | caida:<as-rel-file>")
		rows      = fs.Int("rows", 10, "mesh rows")
		cols      = fs.Int("cols", 10, "mesh cols")
		nodes     = fs.Int("nodes", 100, "node count for every family but mesh and tiered")
		isp       = fs.Int("isp", -1, "ispAS node id (default: nodes/2 for internet, the best-connected AS for caida, 0 otherwise)")
		pulses    = fs.Int("pulses", 1, "number of (withdrawal, announcement) pulses")
		interval  = fs.Duration("interval", experiment.DefaultFlapInterval, "flapping interval")
		damp      = fs.String("damping", "cisco", "damping parameters: none | off | cisco | juniper | ripe229")
		rcnOn     = fs.Bool("rcn", false, "enable RCN-enhanced damping")
		policy    = fs.String("policy", "shortest", "routing policy: shortest | novalley")
		mrai      = fs.Duration("mrai", 30*time.Second, "minimum route advertisement interval (0 disables)")
		seed      = fs.Uint64("seed", 1, "random seed")
		sweep     = fs.String("sweep", "", `run a pulse sweep "from:to" (e.g. "0:10") instead of a single -pulses run`)
		workers   = fs.Int("workers", runtime.NumCPU(), "parallel runs in -sweep mode")
		progress  = fs.Bool("progress", false, "print a live line per warm-up/point to stderr as each completes")
		verbose   = fs.Bool("v", false, "print the update series summary")
		checkOn   = fs.Bool("check", false, "run under the runtime invariant checker (slower; any violation fails the run)")
		traceFile = fs.String("trace", "", "write a JSONL event trace to this file (a -sweep writes its points' flap phases in ascending pulse order)")
		faultFile = fs.String("faults", "", "apply the fault plan in this file (faults.ParsePlan format)")
		loss      = fs.Float64("loss", 0, "uniform message-loss probability in [0, 1]")
		jitter    = fs.Duration("jitter", 0, "maximum extra per-message delay (uniform in [0, jitter))")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = fs.String("memprofile", "", "write a post-run heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *isp < -1 {
		return fmt.Errorf("bad -isp %d: want a node id, or -1 for the default", *isp)
	}

	stop, err := cli.Profile(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stop()

	// The run is the Spec rfdd would build from the same names, so rfdsim
	// refuses what rfdd refuses; the rest of the flags adjust its scenario.
	spec := experiment.Spec{Topology: *topo, Rows: *rows, Cols: *cols, Nodes: *nodes, Damping: *damp, RCN: *rcnOn,
		Seed: *seed, FlapIntervalS: interval.Seconds(), Pulses: []int{*pulses}}
	if *sweep != "" {
		if spec.Pulses, err = parseSweep(*sweep); err != nil {
			return err
		}
	}
	graph, ispID, err := loadTopology(&spec, topology.NodeID(*isp))
	if err != nil {
		return err
	}
	// Zero Options: every size, the seed and the interval are the flags'
	// values, zeros included.
	sc, _, err := spec.Scenario(experiment.Options{Check: *checkOn}, graph)
	if err != nil {
		return err
	}
	if ispID >= 0 {
		sc.ISP = ispID
	}
	sc.Pulses = *pulses
	sc.FlapInterval = *interval // exact: FlapIntervalS, in float seconds, only bounds it
	sc.NoSeries = !*verbose     // only -v prints the series
	sc.Config.MRAI = *mrai
	if sc.Config.Policy, err = bgp.ParsePolicy(*policy); err != nil {
		return err
	}
	if *traceFile != "" {
		sc.Trace = trace.NewLog(0)
	}
	// Any loss or jitter flag set, negative ones included, goes through the
	// profile's validation.
	if *loss != 0 || *jitter != 0 || *faultFile != "" {
		imp := faults.NewImpairments(*seed)
		if err := imp.SetDefault(faults.Profile{Loss: *loss, MaxJitter: *jitter}); err != nil {
			return err
		}
		sc.Impair = imp
		if *faultFile != "" {
			f, err := os.Open(*faultFile)
			if err != nil {
				return err
			}
			plan, err := faults.ParsePlan(f)
			f.Close()
			if err != nil {
				return err
			}
			sc.Faults = plan
		}
	}
	if *progress {
		// Long runs stop being silent: the warm-up and each point (a single
		// run is a sweep of one) report to stderr as they happen, leaving
		// stdout untouched.
		ctx = experiment.WithProgress(ctx, experiment.TextProgress(os.Stderr))
	}
	if *sweep != "" {
		if err := runSweep(ctx, sc, spec.Pulses, *workers); err != nil {
			return err
		}
		return writeTrace(sc.Trace, *traceFile)
	}
	start := time.Now()
	res, err := experiment.RunContext(ctx, sc)
	if err != nil {
		return err
	}
	if err := writeTrace(sc.Trace, *traceFile); err != nil {
		return err
	}

	fmt.Printf("topology          %s (isp=%d, origin=%d)\n", sc.Graph, res.ISP, res.Origin)
	fmt.Printf("workload          %d pulses, %v interval\n", res.Pulses, cmp.Or(sc.FlapInterval, experiment.DefaultFlapInterval))
	fmt.Printf("damping           %s (rcn=%t, policy=%s, mrai=%v)\n", *damp, *rcnOn, sc.Config.Policy, *mrai)
	fmt.Printf("convergence time  %.0f s\n", res.ConvergenceTime.Seconds())
	fmt.Printf("message count     %d\n", res.MessageCount)
	fmt.Printf("damped links max  %d\n", res.MaxDamped)
	fmt.Printf("origin suppressed %t\n", res.OriginSuppressed)
	fmt.Printf("reuses            %d noisy, %d silent\n", res.NoisyReuses, res.SilentReuses)
	fmt.Printf("phases            %s\n", res.Phases)
	if res.Check != nil {
		fmt.Printf("invariant check   %s\n", res.Check)
	}
	if sc.Impair != nil || sc.Faults != nil {
		fmt.Printf("messages dropped  %d\n", res.Dropped)
	}
	if res.FaultReport != nil {
		fmt.Printf("watchdog          %s\n", res.FaultReport)
		if res.FaultReport.Outcome != faults.Converged {
			for _, e := range res.FaultReport.Recent {
				fmt.Printf("  recent event    %v %s\n", e.At, e.Name)
			}
		}
	}
	fmt.Printf("wall time         %v\n", time.Since(start).Round(time.Millisecond))

	if *verbose {
		fmt.Println("\nupdate series (60 s bins):")
		for _, bin := range res.Updates.Bins(0, res.EndTime, time.Minute) {
			if bin.Count == 0 {
				continue
			}
			fmt.Printf("  %6.0fs %5d updates, %3d links damped\n",
				bin.Start.Seconds(), bin.Count, res.Damped.ValueAt(bin.Start))
		}
	}
	return nil
}

// writeTrace writes log, when there is one, to path as JSONL and reports it.
func writeTrace(log *trace.Log, path string) error {
	if log == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := log.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("trace             %d events -> %s (%d dropped)\n", log.Len(), path, log.Dropped())
	return nil
}

// parseSweep reads a -sweep "from:to" as the pulse counts from..to.
func parseSweep(spec string) ([]int, error) {
	fromS, toS, ok := strings.Cut(spec, ":")
	from, errFrom := strconv.Atoi(fromS)
	to, errTo := strconv.Atoi(toS)
	if !ok || errFrom != nil || errTo != nil {
		return nil, fmt.Errorf(`bad -sweep %q (want "from:to", e.g. "0:10")`, spec)
	}
	pulses := experiment.PulseRange(from, to)
	if len(pulses) == 0 {
		return nil, fmt.Errorf("bad -sweep %q: empty range", spec)
	}
	return pulses, nil
}

// runSweep runs the scenario once per pulse count (ascending) and prints one
// row per point. The warm-up and the flap phases are shared: the warm-up
// executes once, and one flight flaps through every pulse count, each point
// branching off it (see experiment.SweepParallelContext).
func runSweep(ctx context.Context, sc experiment.Scenario, pulses []int, workers int) error {
	start := time.Now()
	pts, err := experiment.SweepParallelContext(ctx, sc, pulses, workers)
	if err != nil {
		return err
	}
	fmt.Printf("sweep             pulses %d..%d, %d workers, shared warm-up\n", pulses[0], pulses[len(pulses)-1], max(workers, 1))
	fmt.Printf("%6s %14s %9s %11s %6s %7s\n",
		"pulses", "convergence_s", "messages", "max_damped", "noisy", "silent")
	for _, p := range pts {
		fmt.Printf("%6d %14.0f %9d %11d %6d %7d\n", p.Pulses,
			p.Result.ConvergenceTime.Seconds(), p.Result.MessageCount,
			p.Result.MaxDamped, p.Result.NoisyReuses, p.Result.SilentReuses)
	}
	fmt.Printf("wall time         %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// loadTopology returns the graph source for spec's topology and the ispAS:
// isp when one is named, else -1 for the shape's default. A "caida:<file>"
// import is rfdsim's own — no Spec family reads a file, so a daemon never
// opens one a client names. It clears spec's family (the sizes are still
// bounded) and defaults the ispAS to the best-connected AS (ties to the
// lowest id, i.e. the lowest AS number).
func loadTopology(spec *experiment.Spec, isp topology.NodeID) (func(topology.Shape) (*topology.Graph, error), topology.NodeID, error) {
	path, ok := strings.CutPrefix(spec.Topology, "caida:")
	if !ok {
		return topology.Shape.Generate, isp, nil
	}
	g, err := topology.LoadASRelationships(path)
	if err != nil {
		return nil, 0, err
	}
	best := topology.NodeID(0)
	for v := topology.NodeID(1); int(v) < g.NumNodes(); v++ {
		if g.Degree(v) > g.Degree(best) {
			best = v
		}
	}
	if isp < 0 {
		isp = best
	}
	spec.Topology = ""
	return func(topology.Shape) (*topology.Graph, error) { return g, nil }, isp, nil
}
