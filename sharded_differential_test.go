package rfd_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"rfd/bgp"
	"rfd/damping"
	"rfd/experiment"
	"rfd/faults"
	"rfd/internal/xrand"
	"rfd/sim"
	"rfd/topology"
	"rfd/trace"
)

// shardedGoldenPath pins the sequential engine at internet scale: the
// canonical event trace of a faulty 208-node internet-derived run, recorded
// as an event count plus a SHA-256 digest (the full trace is megabytes; the
// digest pins it just as hard).
const shardedGoldenPath = "testdata/golden_shard_internet208.digest"

// synthASRel renders an annotated graph in CAIDA serial-1 form, so the
// differential matrix covers a graph that went through the importer.
func synthASRel(t *testing.T, g *topology.Graph) string {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("# synthesized from " + g.Name() + "\n")
	asn := func(v topology.NodeID) int { return 10 + 7*int(v) } // order-preserving, sparse
	for _, e := range g.Edges() {
		a, b := e.A, e.B
		switch g.Relationship(a, b) {
		case topology.RelCustomer: // a provides transit to b
			fmt.Fprintf(&sb, "%d|%d|-1\n", asn(a), asn(b))
		case topology.RelProvider:
			fmt.Fprintf(&sb, "%d|%d|-1\n", asn(b), asn(a))
		default:
			fmt.Fprintf(&sb, "%d|%d|0\n", asn(a), asn(b))
		}
	}
	return sb.String()
}

// importedGraph round-trips an internet-derived graph through the CAIDA
// importer. The AS numbering is order-preserving, so the imported graph has
// the same node ids and (up to annotation) the same structure.
func importedGraph(t *testing.T, nodes int, seed uint64) *topology.Graph {
	t.Helper()
	base, err := topology.InternetDerived(topology.DefaultInternetConfig(nodes, seed))
	if err != nil {
		t.Fatal(err)
	}
	g, err := topology.ParseASRelationships(strings.NewReader(synthASRel(t, base)), "imported")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != base.NumNodes() || g.NumEdges() != base.NumEdges() {
		t.Fatalf("import round-trip changed shape: %d/%d nodes, %d/%d edges",
			g.NumNodes(), base.NumNodes(), g.NumEdges(), base.NumEdges())
	}
	return g
}

// linkStreams is a loss-and-jitter model in which each directed link draws
// from its own stream, derived from (seed, from, to) on first use. The
// internet-208 golden digest was recorded with it, so it stays with that
// golden. loss and jitter must both be positive.
type linkStreams struct {
	seed    uint64
	loss    float64
	jitter  time.Duration
	streams map[[2]bgp.RouterID]*xrand.Rand
}

func newLinkStreams(seed uint64, loss float64, jitter time.Duration) *linkStreams {
	return &linkStreams{seed: seed, loss: loss, jitter: jitter, streams: make(map[[2]bgp.RouterID]*xrand.Rand)}
}

// Impair implements bgp.LinkImpairment.
func (l *linkStreams) Impair(_ time.Duration, from, to bgp.RouterID) (bool, time.Duration) {
	k := [2]bgp.RouterID{from, to}
	r := l.streams[k]
	if r == nil {
		// xrand.New splitmixes the mixed seed, so adjacent (seed, from, to)
		// triples still yield unrelated streams.
		r = xrand.New(l.seed ^ uint64(uint32(from))<<32 ^ uint64(uint32(to))*0x9E3779B97F4A7C15).Split()
		l.streams[k] = r
	}
	if r.Float64() < l.loss {
		return true, 0
	}
	return false, time.Duration(r.Uint64n(uint64(l.jitter)))
}

// ForkImpairment implements bgp.ImpairmentForker: every stream at its
// position.
func (l *linkStreams) ForkImpairment() bgp.LinkImpairment {
	c := newLinkStreams(l.seed, l.loss, l.jitter)
	for k, r := range l.streams {
		c.streams[k] = r.Clone()
	}
	return c
}

// canonicalSharded runs warm-up plus pulses on either engine — shards <= 1
// selects the sequential engine — and returns the canonical trace bytes.
// withFaults, on the sequential engine only, impairs every link and flaps one
// link and resets one session after the first pulse: a sharded network takes
// no faults.
func canonicalSharded(t *testing.T, g *topology.Graph, cfg bgp.Config, origin bgp.RouterID, pulses, shards int, withFaults bool) []byte {
	t.Helper()
	prefix := bgp.Prefix("origin/8")

	type engine struct {
		router  func(bgp.RouterID) *bgp.Router
		run     func() error
		runTo   func(time.Duration) error
		now     func() time.Duration
		align   func()
		seq     *bgp.Network // nil on the sharded engine
		logs    func() []*trace.Log
		counts  func() (uint64, uint64)
		cleanup func()
	}
	var eng engine
	if shards <= 1 {
		k := sim.NewKernel(sim.WithSeed(cfg.Seed))
		n, err := bgp.NewNetwork(k, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		log := trace.NewLog(0)
		n.SetHooks(bgp.TraceHooks(log))
		eng = engine{
			router:  n.Router,
			run:     k.Run,
			runTo:   k.RunUntil,
			now:     k.Now,
			align:   func() {},
			seq:     n,
			logs:    func() []*trace.Log { return []*trace.Log{log} },
			counts:  func() (uint64, uint64) { return n.Delivered(), n.Dropped() },
			cleanup: func() {},
		}
	} else {
		if withFaults {
			t.Fatal("a sharded network takes no faults")
		}
		assign, err := topology.Partition(g, shards)
		if err != nil {
			t.Fatal(err)
		}
		sn, err := bgp.NewShardedNetwork(g, cfg, assign)
		if err != nil {
			t.Fatal(err)
		}
		logs := make([]*trace.Log, sn.NumShards())
		for s := range logs {
			logs[s] = trace.NewLog(0)
			sn.Shard(s).SetHooks(bgp.TraceHooks(logs[s]))
		}
		grp := sn.Group()
		eng = engine{
			router:  sn.Router,
			run:     grp.Run,
			runTo:   grp.RunUntil,
			now:     grp.Now,
			align:   sn.Align,
			logs:    func() []*trace.Log { return logs },
			counts:  func() (uint64, uint64) { return sn.Delivered(), sn.Dropped() },
			cleanup: sn.Close,
		}
	}
	defer eng.cleanup()

	eng.router(origin).Originate(prefix)
	if err := eng.run(); err != nil {
		t.Fatal(err)
	}
	eng.align()

	if withFaults {
		eng.seq.SetImpairment(newLinkStreams(cfg.Seed, 0.01, 2*time.Millisecond))
	}

	const interval = 60 * time.Second
	step := func(d time.Duration) {
		if err := eng.runTo(eng.now() + d); err != nil {
			t.Fatal(err)
		}
	}
	for pulse := 0; pulse < pulses; pulse++ {
		eng.router(origin).StopOriginating(prefix)
		step(interval)
		eng.router(origin).Originate(prefix)
		step(interval)
		if withFaults && pulse == 0 {
			if err := eng.seq.SetLinkState(0, 1, false); err != nil {
				t.Fatal(err)
			}
			step(30 * time.Second)
			if err := eng.seq.SetLinkState(0, 1, true); err != nil {
				t.Fatal(err)
			}
			if err := eng.seq.ResetSession(2, 3); err != nil {
				t.Fatal(err)
			}
			step(30 * time.Second)
		}
	}
	if err := eng.run(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := trace.Merge(eng.logs()...).WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	delivered, dropped := eng.counts()
	fmt.Fprintf(&buf, "delivered %d dropped %d\n", delivered, dropped)
	return buf.Bytes()
}

// TestShardedDifferentialMatrix is the sharded engine's pinning property at
// the repo root: across topology families (mesh, internet-derived, CAIDA-
// imported), the sharded engine's canonical trace is byte-identical to the
// sequential engine's for the same seed. The sharded engine takes no faults,
// so every cell is clean.
func TestShardedDifferentialMatrix(t *testing.T) {
	mesh := func(t *testing.T) *topology.Graph {
		g, err := topology.Torus(6, 6)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	internet := func(t *testing.T) *topology.Graph {
		g, err := topology.InternetDerived(topology.DefaultInternetConfig(208, 3))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	imported := func(t *testing.T) *topology.Graph { return importedGraph(t, 60, 7) }

	for _, c := range []struct {
		name   string
		graph  func(t *testing.T) *topology.Graph
		pulses int
	}{
		{"mesh6x6", mesh, 2},
		{"internet208", internet, 1},
		{"imported60", imported, 2},
	} {
		t.Run(c.name+"/exact/clean", func(t *testing.T) {
			g := c.graph(t)
			cfg := bgp.DefaultConfig()
			params := damping.Cisco()
			cfg.Damping = &params
			cfg.Seed = 13
			origin := bgp.RouterID(g.NumNodes() / 2)
			want := canonicalSharded(t, g, cfg, origin, c.pulses, 1, false)
			got := canonicalSharded(t, g, cfg, origin, c.pulses, 4, false)
			if !bytes.Equal(want, got) {
				i := 0
				for i < len(want) && i < len(got) && want[i] == got[i] {
					i++
				}
				t.Fatalf("sharded trace diverges from sequential at byte %d (len %d vs %d)", i, len(want), len(got))
			}
		})
	}
}

// TestShardedForkDifferential extends the differential matrix with fork legs.
// Only the sequential engine forks, so for every {topology} × {clean, faulty}
// cell a run resumed from a sequential checkpoint must produce the
// byte-identical trace and the deeply equal Result of a from-scratch run; in
// the clean cells it must also measure what a from-scratch sharded run does
// (the sharded engine takes no fault plan), so checkpointing did not
// reintroduce an engine skew the base matrix rules out for from-scratch runs.
func TestShardedForkDifferential(t *testing.T) {
	jsonl := func(t *testing.T, log *trace.Log) []byte {
		t.Helper()
		if log.Dropped() != 0 {
			t.Fatalf("trace dropped %d events", log.Dropped())
		}
		var buf bytes.Buffer
		if err := log.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	runLeg := func(t *testing.T, sc experiment.Scenario,
		run func(experiment.Scenario) (*experiment.Result, error)) (*experiment.Result, []byte) {
		t.Helper()
		sc.Trace = trace.NewLog(0)
		res, err := run(sc)
		if err != nil {
			t.Fatal(err)
		}
		return res, jsonl(t, sc.Trace)
	}
	diverge := func(t *testing.T, leg string, want, got []byte) {
		t.Helper()
		if bytes.Equal(want, got) {
			return
		}
		i := 0
		for i < len(want) && i < len(got) && want[i] == got[i] {
			i++
		}
		t.Fatalf("%s trace diverges from scratch at byte %d (len %d vs %d)",
			leg, i, len(want), len(got))
	}

	for _, gr := range []struct {
		name   string
		graph  func(t *testing.T) *topology.Graph
		pulses int
	}{
		{"mesh6x6", func(t *testing.T) *topology.Graph {
			g, err := topology.Torus(6, 6)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}, 2},
		{"internet208", func(t *testing.T) *topology.Graph {
			g, err := topology.InternetDerived(topology.DefaultInternetConfig(208, 3))
			if err != nil {
				t.Fatal(err)
			}
			return g
		}, 1},
	} {
		for _, withFaults := range []bool{false, true} {
			fname := "clean"
			if withFaults {
				fname = "faulty"
			}
			gr, withFaults := gr, withFaults
			t.Run(gr.name+"/exact/"+fname, func(t *testing.T) {
				g := gr.graph(t)
				// mk builds a fresh scenario per leg. The faulty legs flap a
				// link and reset a session.
				mk := func(shards int) experiment.Scenario {
					cfg := bgp.DefaultConfig()
					params := damping.Cisco()
					cfg.Damping = &params
					cfg.Seed = 13
					sc := experiment.Scenario{
						Graph:  g,
						ISP:    topology.NodeID(g.NumNodes() / 2),
						Config: cfg,
						Pulses: gr.pulses,
						Shards: shards,
					}
					if withFaults {
						sc.Faults = faults.NewPlan(
							faults.FlapLink(30*time.Second, 0, 1, 30*time.Second),
							faults.ResetSession(45*time.Second, 2, 3),
						)
					}
					return sc
				}

				scratchRes, scratchTrace := runLeg(t, mk(0), experiment.Run)
				if len(scratchTrace) == 0 {
					t.Fatal("empty trace: the comparison is vacuous")
				}

				cp, err := (*experiment.CheckpointPool)(nil).Get(context.Background(), mk(0))
				if err != nil {
					t.Fatal(err)
				}
				seqRes, seqTrace := runLeg(t, mk(0), cp.Run)
				diverge(t, "sequential-fork", scratchTrace, seqTrace)
				if !reflect.DeepEqual(scratchRes, seqRes) {
					t.Fatal("sequential-fork Result differs from scratch Result")
				}
				if withFaults {
					return
				}
				shRes, err := experiment.Run(mk(4))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(seqRes, shRes) {
					t.Fatalf("sequential-fork Result differs from scratch sharded:\nseq:     %+v\nsharded: %+v", seqRes, shRes)
				}
			})
		}
	}

	// Sweep rows: every point of a pulse sweep — a branch forked off one
	// shared flap trajectory, mid-flap — must equal a standalone run of its
	// pulse count. The impaired leg still branches: stream positions fork
	// with the engine. Only the sequential engine (shards=0) sweeps.
	g, err := topology.Torus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, impaired := range []bool{false, true} {
		mk := func() experiment.Scenario {
			cfg := bgp.DefaultConfig()
			params := damping.Cisco()
			cfg.Damping = &params
			cfg.Seed = 13
			sc := experiment.Scenario{Graph: g, ISP: topology.NodeID(g.NumNodes() / 2), Config: cfg}
			if impaired {
				im := faults.NewImpairments(cfg.Seed)
				if err := im.SetDefault(faults.Profile{Loss: 0.01, MaxJitter: 2 * time.Millisecond}); err != nil {
					t.Fatal(err)
				}
				sc.Impair = im
			}
			return sc
		}
		pulses := experiment.PulseRange(0, 3)
		want := make([]*experiment.Result, len(pulses))
		for i, n := range pulses {
			sc := mk()
			sc.Pulses = n
			if want[i], err = experiment.Run(sc); err != nil {
				t.Fatal(err)
			}
		}
		t.Run(fmt.Sprintf("sweep/mesh6x6/impaired=%t/shards=0", impaired), func(t *testing.T) {
			pts, err := experiment.SweepParallelContext(context.Background(), mk(), pulses, 2)
			if err != nil {
				t.Fatal(err)
			}
			for i, pt := range pts {
				if impaired && pt.Pulses > 0 && pt.Result.Dropped == 0 {
					t.Fatalf("n=%d: the impaired sweep dropped nothing", pt.Pulses)
				}
				if want := want[i]; !reflect.DeepEqual(want, pt.Result) {
					t.Fatalf("sweep point n=%d differs from a standalone run:\nwant %+v\ngot  %+v", pt.Pulses, want, pt.Result)
				}
			}
		})
	}
}

// TestShardedGoldenInternet208 pins the sequential engine's behaviour at
// scale: event count and SHA-256 digest of the canonical trace of a faulty
// 208-node internet-derived run. The sharded engine takes no faults, so it no
// longer reproduces this run. Run with -update to re-record after an
// intentional behaviour change.
func TestShardedGoldenInternet208(t *testing.T) {
	g, err := topology.InternetDerived(topology.DefaultInternetConfig(208, 3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := bgp.DefaultConfig()
	params := damping.Cisco()
	cfg.Damping = &params
	cfg.Seed = 13
	origin := bgp.RouterID(g.NumNodes() / 2)

	render := func(raw []byte) string {
		lines := bytes.Count(raw, []byte("\n"))
		sum := sha256.Sum256(raw)
		return fmt.Sprintf("lines %d sha256 %s\n", lines, hex.EncodeToString(sum[:]))
	}
	got := render(canonicalSharded(t, g, cfg, origin, 1, 1, true))
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(shardedGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(shardedGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s: %s", shardedGoldenPath, got)
		return
	}
	want, err := os.ReadFile(shardedGoldenPath)
	if err != nil {
		t.Fatalf("missing golden digest (run with -update to record): %v", err)
	}
	if string(want) != got {
		t.Fatalf("sequential digest diverged:\nwant %sgot  %s", want, got)
	}
}

// TestShardedRunMatchesSequential runs experiment.Run on Shards 1 and 2 and
// compares the whole Results, as a front end would read them with the
// sequential engine's defaults (zero Options, Cisco damping, one pulse).
//   - internet300-series keeps the per-minute series: one network reads its
//     damped-link count off the RIB-INs at every flip, several networks
//     replay a running ±1 count from their observation feeds, and the whole
//     series must agree, not just the peak.
//   - internet5000-undamped delivers more than 2^20 updates per shard, so
//     each shard's observation feed must hold more records than a trace log's
//     default bound. It takes seconds, so it runs only when RFD_SHARDED_SCALE
//     is set (CI's sharded job sets it).
func TestShardedRunMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spec  experiment.Spec
		scale bool
	}{
		{"internet300-series", experiment.Spec{Topology: "internet", Nodes: 300, Damping: "cisco", Seed: 1, Pulses: []int{1}}, false},
		{"internet5000-undamped", experiment.Spec{Topology: "internet", Nodes: 5000, Damping: "none", Seed: 1, Pulses: []int{30}}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.scale && os.Getenv("RFD_SHARDED_SCALE") == "" {
				t.Skip("set RFD_SHARDED_SCALE=1 to run this leg (seconds, not milliseconds)")
			}
			sc, pulses, err := tc.spec.Scenario(experiment.Options{}, topology.Shape.Generate)
			if err != nil {
				t.Fatal(err)
			}
			sc.Pulses = pulses[0]
			sc.FlapInterval = experiment.DefaultFlapInterval
			want, err := experiment.Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if want.MessageCount == 0 || want.Damped == nil {
				t.Fatal("the run sent no message or kept no series: the comparison is vacuous")
			}
			sc.Shards = 2
			got, err := experiment.Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("Shards=2 Result differs from Shards=1:\nwant %+v\ngot  %+v", want, got)
			}
		})
	}
}
