package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"rfd/bgp"
	"rfd/damping"
	"rfd/experiment"
	"rfd/topology"
)

// scale sizes every workload. The full scale is what BENCHMARK.json measures;
// the smoke scale lets bench_test.go walk the same code in a few seconds.
type scale struct {
	name         string
	inetNodes    int  // inet-seq and inet-shard2 topology
	mixInetNodes int  // internet sessions of rfdd-mix
	meshSide     int  // mesh sessions of rfdd-mix; paper-figs' representative scenario
	policyNodes  int  // the Fig 15 graph, timed as topology.internet_gen_ms on paper-figs
	figSmall     bool // pass -small to rfdfig
	// ops is the timed op count per workload, fixed in code so both sides of a
	// comparison do identical work; for rfdd-mix it counts sessions of 13
	// requests. The full counts put every timed phase between 13 and 25 s on
	// the 2-core reference host (BENCHMARK.json's run_seconds is 20).
	ops       map[string]int
	setupReps int // set-up is repeated and its median reported
	probeN    int // iterations of each micro-probe in a traced run
}

var (
	fullScale = scale{name: "full", inetNodes: 2000, mixInetNodes: 300, meshSide: 10, policyNodes: 208,
		ops:       map[string]int{wPaperFigs: 30, wInetSeq: 10, wInetShard2: 30, wRfddMix: 160},
		setupReps: 3, probeN: 200000}
	smokeScale = scale{name: "smoke", inetNodes: 200, mixInetNodes: 60, meshSide: 5, policyNodes: 40, figSmall: true,
		ops:       map[string]int{wPaperFigs: 2, wInetSeq: 2, wInetShard2: 2, wRfddMix: 3},
		setupReps: 1, probeN: 2000}
)

// env is what every workload needs from the harness.
type env struct {
	seed    uint64
	scale   scale
	par     int       // workers / client connections: min(nproc, 2)
	workDir string    // scratch inside the checkout; binaries and rfdfig output
	log     io.Writer // human-readable progress and tables
	// Prebuilt binaries. Empty means "go build it during set-up".
	rfdfigBin, rfddBin string
}

// e2eRun is what one untraced workload run measured.
type e2eRun struct {
	workload  string
	params    string    // workers/shards/clients actually used
	setup     []float64 // seconds, one per set-up repetition
	ops       []float64 // wall seconds per op
	opP50     float64   // the op_s_p50 statistic (see README for rfdd-mix)
	wall      float64   // timed wall seconds the ops were completed in
	cpu       float64   // CPU seconds of the process running the simulator
	rssMiB    float64   // median per-op high-water RSS (whole-run high-water for rfdd)
	attempted int
	failed    int
	// counters are simulated outputs. They are pure functions of the seed and
	// must repeat exactly between two runs of the same code.
	counters map[string]string
	// problems lists failed output checks (each also counted in failed).
	problems []string
	// mix carries the per-class samples of rfdd-mix (nil elsewhere).
	mix *mixResult
}

func (r *e2eRun) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// simCounters are the deterministic outputs of one simulated episode.
type simCounters struct {
	ConvNS    int64 `json:"conv_ns"`
	Msgs      int   `json:"msgs"`
	MaxDamped int   `json:"max_damped"`
	Noisy     int   `json:"noisy_reuses"`
	Silent    int   `json:"silent_reuses"`
}

func countersOf(res *experiment.Result) simCounters {
	return simCounters{
		ConvNS:    int64(res.ConvergenceTime),
		Msgs:      res.MessageCount,
		MaxDamped: res.MaxDamped,
		Noisy:     res.NoisyReuses,
		Silent:    res.SilentReuses,
	}
}

func (c simCounters) String() string {
	return fmt.Sprintf("conv_s=%.3f msgs=%d max_damped=%d noisy=%d silent=%d",
		time.Duration(c.ConvNS).Seconds(), c.Msgs, c.MaxDamped, c.Noisy, c.Silent)
}

func (c simCounters) record(into map[string]string) {
	into["conv_ns"] = strconv.FormatInt(c.ConvNS, 10)
	into["msgs"] = strconv.Itoa(c.Msgs)
	into["max_damped"] = strconv.Itoa(c.MaxDamped)
	into["noisy_reuses"] = strconv.Itoa(c.Noisy)
	into["silent_reuses"] = strconv.Itoa(c.Silent)
}

// ciscoConfig is the protocol configuration of every benchmark scenario:
// paper defaults with Cisco damping at every router.
func ciscoConfig(seed uint64) bgp.Config {
	cfg := bgp.DefaultConfig()
	params := damping.Cisco()
	cfg.Damping = &params
	cfg.Seed = seed
	return cfg
}

// referenceSeed fixes the single-scenario workloads. How much a damped
// episode costs depends on its seed — across ten seeds internet-2000 delivers
// 54k to 80k updates and host time moves by ±20% — and one run holds too few
// such episodes for that to average out, so inet-seq, inet-shard2 and the
// traced replays always run the same reference episode; -seed varies the
// workloads made of many small scenarios (paper-figs, rfdd-mix), where it
// does average out.
const referenceSeed = 1

// inetScenario is the single-pulse Cisco-damped reference episode on an
// Internet-derived graph that inet-seq and inet-shard2 share.
func inetScenario(nodes, shards int) (experiment.Scenario, error) {
	g, err := topology.InternetDerived(topology.DefaultInternetConfig(nodes, referenceSeed))
	if err != nil {
		return experiment.Scenario{}, err
	}
	return experiment.Scenario{
		Graph:  g,
		ISP:    topology.NodeID(nodes / 2),
		Config: ciscoConfig(referenceSeed),
		Pulses: 1,
		Shards: shards,
	}, nil
}

// runInet is inet-seq (shards 0) and inet-shard2 (shards 2): in-process
// experiment.Run, one op per call.
func runInet(e *env, workload string, shards int) (*e2eRun, error) {
	r := &e2eRun{workload: workload, counters: map[string]string{}}
	r.params = fmt.Sprintf("shards=%d workers=1", shards)

	var sc experiment.Scenario
	var want simCounters
	for rep := 0; rep < e.scale.setupReps; rep++ {
		t0 := time.Now()
		var err error
		if sc, err = inetScenario(e.scale.inetNodes, shards); err != nil {
			return nil, err
		}
		res, err := experiment.Run(sc) // the untimed warm-up op
		if err != nil {
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
		want = countersOf(res)
		r.setup = append(r.setup, time.Since(t0).Seconds())
	}

	n := e.scale.ops[workload]
	var peaks []float64
	for i := 0; i < n; i++ {
		runtime.GC() // outside the timed window: no op pays for its predecessor's garbage
		if err := resetPeakRSS(); err != nil {
			return nil, fmt.Errorf("per-op peak RSS: %w", err)
		}
		cpu0 := selfCPU()
		t0 := time.Now()
		res, err := experiment.Run(sc)
		d := time.Since(t0)
		r.cpu += (selfCPU() - cpu0).Seconds()
		r.ops = append(r.ops, d.Seconds())
		r.attempted++
		peak, perr := peakRSSMiB(os.Getpid())
		if perr != nil {
			return nil, perr
		}
		peaks = append(peaks, peak)
		switch {
		case err != nil:
			r.fail("op %d: %v", i, err)
		case countersOf(res) != want:
			r.fail("op %d: counters %v differ from the warm-up op's %v", i, countersOf(res), want)
		}
	}
	r.wall = sum(r.ops)
	r.opP50 = median(r.ops)
	r.rssMiB = median(peaks)

	// Seed-independent cross-check: the other engine must produce the very
	// same counters for this scenario (untimed).
	other := sc
	other.Shards = 2 - shards
	if res, err := experiment.Run(other); err != nil {
		r.fail("cross-engine op (shards=%d): %v", other.Shards, err)
	} else if got := countersOf(res); got != want {
		r.fail("engines disagree: shards=%d %v, shards=%d %v", shards, want, other.Shards, got)
	}
	want.record(r.counters)
	return r, nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// buildBinary compiles one of the repo's commands into the work directory.
// The output is removed first so every set-up repetition pays for the link.
func buildBinary(e *env, name string) (string, error) {
	out := filepath.Join(e.workDir, "bin", name)
	if err := os.Remove(out); err != nil && !os.IsNotExist(err) {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", out, "rfd/cmd/"+name)
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build %s: %v\n%s", name, err, msg)
	}
	return out, nil
}

// figOp is one rfdfig process and what it left behind.
type figOp struct {
	wall, cpu float64
	rssMiB    float64           // median per-op high-water RSS (whole-run high-water for rfdd)
	digests   map[string]string // CSV name -> SHA-256
}

// runRfdfig executes one `rfdfig -fig all -noplot` into a fresh directory,
// then (untimed) digests and removes its CSVs.
func runRfdfig(e *env, bin string, i int, seed uint64) (figOp, error) {
	dir := filepath.Join(e.workDir, fmt.Sprintf("figs-%d-%d", os.Getpid(), i))
	defer os.RemoveAll(dir)
	args := []string{"-fig", "all", "-noplot", "-workers", strconv.Itoa(e.par),
		"-seed", strconv.FormatUint(seed, 10), "-out", dir}
	if e.scale.figSmall {
		args = append(args, "-small")
	}
	cmd := exec.Command(bin, args...)
	t0 := time.Now()
	msg, err := cmd.CombinedOutput()
	op := figOp{wall: time.Since(t0).Seconds()}
	if err != nil {
		return op, fmt.Errorf("rfdfig: %v\n%s", err, msg)
	}
	ps := cmd.ProcessState
	op.cpu = (ps.UserTime() + ps.SystemTime()).Seconds()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		op.rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	op.digests, err = digestDir(dir)
	return op, err
}

func digestDir(dir string) (map[string]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(entries))
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			return nil, err
		}
		h := sha256.Sum256(data)
		out[ent.Name()] = hex.EncodeToString(h[:])
	}
	return out, nil
}

// diffDigests names the artifacts on which two digest sets disagree.
func diffDigests(got, want map[string]string) []string {
	var bad []string
	for name, w := range want {
		if got[name] != w {
			bad = append(bad, name)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			bad = append(bad, name)
		}
	}
	sort.Strings(bad)
	return bad
}

// figSeeds derives the rfdfig seeds of one run from the benchmark seed. Ops
// cycle through them, so every seed is run about three times: the repeats
// must agree byte for byte, and a run's median averages over enough seeds
// that it no longer depends on which ones (one seed alone moves op time ±4%).
func figSeeds(seed uint64, ops int) []uint64 {
	seeds := make([]uint64, max(1, ops/3))
	for j := range seeds {
		seeds[j] = seed*16 + uint64(j)
	}
	return seeds
}

// combinedDigest folds one rfdfig run's CSV digests into a single counter.
func combinedDigest(digests map[string]string) string {
	h := sha256.New()
	for _, name := range sortedKeys(digests) {
		fmt.Fprintf(h, "%s %s\n", name, digests[name])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runPaperFigs is paper-figs: one op is one rfdfig process regenerating every
// table and figure.
func runPaperFigs(e *env) (*e2eRun, error) {
	r := &e2eRun{workload: wPaperFigs, counters: map[string]string{}}
	n := e.scale.ops[wPaperFigs]
	seeds := figSeeds(e.seed, n)
	r.params = fmt.Sprintf("workers=%d, %d rfdfig seeds from %d", e.par, len(seeds), seeds[0])

	bin := e.rfdfigBin
	for rep := 0; rep < e.scale.setupReps; rep++ {
		t0 := time.Now()
		if e.rfdfigBin == "" {
			var err error
			if bin, err = buildBinary(e, "rfdfig"); err != nil {
				return nil, err
			}
		}
		op, err := runRfdfig(e, bin, -1-rep, seeds[rep%len(seeds)]) // the untimed warm-up op
		if err != nil {
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
		if len(op.digests) == 0 {
			return nil, fmt.Errorf("rfdfig wrote no CSV")
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
	}

	want := map[uint64]map[string]string{} // first digests seen per seed
	var peaks []float64
	for i := 0; i < n; i++ {
		seed := seeds[i%len(seeds)]
		op, err := runRfdfig(e, bin, i, seed)
		r.ops = append(r.ops, op.wall)
		r.cpu += op.cpu
		peaks = append(peaks, op.rssMiB)
		r.attempted++
		if err != nil {
			r.fail("op %d: %v", i, err)
		} else if first, ok := want[seed]; !ok {
			want[seed] = op.digests
		} else if bad := diffDigests(op.digests, first); len(bad) > 0 {
			r.fail("op %d: CSVs differ from an earlier op with the same seed %d: %v", i, seed, bad)
		}
	}
	r.wall = sum(r.ops)
	r.opP50 = median(r.ops)
	r.rssMiB = median(peaks)
	for seed, digests := range want {
		r.counters[fmt.Sprintf("sha256.seed%d", seed)] = combinedDigest(digests)
	}
	return r, nil
}
