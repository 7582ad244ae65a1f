package bgp_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"rfd/bgp"
	"rfd/damping"
	"rfd/sim"
	"rfd/topology"
	"rfd/trace"
)

// seqTrace runs the sequential engine through warm-up plus two flap pulses
// and returns the canonical bgp event trace as JSONL plus end-state counters.
func seqTrace(t *testing.T, g *topology.Graph, cfg bgp.Config, origin bgp.RouterID, prefix bgp.Prefix) []byte {
	t.Helper()
	k := sim.NewKernel(sim.WithSeed(cfg.Seed))
	n, err := bgp.NewNetwork(k, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	log := trace.NewLog(0)
	n.SetHooks(bgp.TraceHooks(log))
	n.Router(origin).Originate(prefix)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	n.ResetDamping()
	const interval = 60 * time.Second
	for pulse := 0; pulse < 2; pulse++ {
		n.Router(origin).StopOriginating(prefix)
		if err := k.RunUntil(k.Now() + interval); err != nil {
			t.Fatal(err)
		}
		n.Router(origin).Originate(prefix)
		if err := k.RunUntil(k.Now() + interval); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return canonicalBytes(t, trace.Merge(log), n.Delivered(), n.Dropped())
}

// shardTrace is seqTrace on the sharded engine with the given shard count.
func shardTrace(t *testing.T, g *topology.Graph, cfg bgp.Config, origin bgp.RouterID, prefix bgp.Prefix, shards int) []byte {
	t.Helper()
	assign, err := topology.Partition(g, shards)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := bgp.NewShardedNetwork(g, cfg, assign)
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	logs := observeShards(sn)
	g2 := sn.Group()
	sn.Router(origin).Originate(prefix)
	if err := g2.Run(); err != nil {
		t.Fatal(err)
	}
	sn.Align()
	sn.ResetDamping()
	const interval = 60 * time.Second
	for pulse := 0; pulse < 2; pulse++ {
		sn.Router(origin).StopOriginating(prefix)
		if err := g2.RunUntil(g2.Now() + interval); err != nil {
			t.Fatal(err)
		}
		sn.Router(origin).Originate(prefix)
		if err := g2.RunUntil(g2.Now() + interval); err != nil {
			t.Fatal(err)
		}
	}
	if err := g2.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sn.CheckConsistency(); err != nil {
		t.Fatalf("sharded ensemble inconsistent: %v", err)
	}
	return canonicalBytes(t, trace.Merge(logs...), sn.Delivered(), sn.Dropped())
}

func canonicalBytes(t *testing.T, log *trace.Log, delivered, dropped uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := log.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "delivered %d dropped %d\n", delivered, dropped)
	return buf.Bytes()
}

func diffPoint(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo, hi := i-120, i+120
	if lo < 0 {
		lo = 0
	}
	ctx := func(s []byte) string {
		end := hi
		if end > len(s) {
			end = len(s)
		}
		if lo >= end {
			return ""
		}
		return string(s[lo:end])
	}
	return fmt.Sprintf("diverges at byte %d (len %d vs %d)\nseq:   …%s…\nshard: …%s…", i, len(a), len(b), ctx(a), ctx(b))
}

// TestShardedMatchesSequential is the engine-level byte-identity property:
// for a fixed seed, the canonical event trace of the sharded engine equals
// the sequential engine's, for every shard count and for both worker and
// sequential coordination modes.
func TestShardedMatchesSequential(t *testing.T) {
	g, err := topology.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := bgp.DefaultConfig()
	params := damping.Cisco()
	cfg.Damping = &params
	cfg.Seed = 5
	const prefix = bgp.Prefix("origin/8")
	origin := bgp.RouterID(9)
	want := seqTrace(t, g, cfg, origin, prefix)
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			got := shardTrace(t, g, cfg, origin, prefix, shards)
			if !bytes.Equal(want, got) {
				t.Fatalf("sharded trace differs from sequential: %s", diffPoint(want, got))
			}
		})
	}
}

// TestShardedFaultReplication drives link and router faults through the
// ensemble-level entry points and checks the replicated state stays in
// lockstep (CheckConsistency's replica-agreement pass) while still matching
// the sequential engine's canonical trace.
func TestShardedFaultsMatchSequential(t *testing.T) {
	g, err := topology.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := bgp.DefaultConfig()
	params := damping.Cisco()
	cfg.Damping = &params
	cfg.Seed = 11
	const prefix = bgp.Prefix("origin/8")
	origin := bgp.RouterID(9)

	type netOps interface {
		SetLinkState(a, b bgp.RouterID, up bool) error
		ResetSession(a, b bgp.RouterID) error
		CrashRouter(id bgp.RouterID) error
		RestartRouter(id bgp.RouterID) error
	}
	drive := func(t *testing.T, n netOps, run func(time.Duration) error, now func() time.Duration, router func(bgp.RouterID) *bgp.Router) {
		router(origin).Originate(prefix)
		if err := run(0); err != nil { // d==0 means full drain
			t.Fatal(err)
		}
		step := func(d time.Duration) {
			if err := run(now() + d); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.SetLinkState(origin, 5, false); err != nil {
			t.Fatal(err)
		}
		step(30 * time.Second)
		if err := n.SetLinkState(origin, 5, true); err != nil {
			t.Fatal(err)
		}
		step(30 * time.Second)
		if err := n.ResetSession(1, 2); err != nil {
			t.Fatal(err)
		}
		step(30 * time.Second)
		if err := n.CrashRouter(6); err != nil {
			t.Fatal(err)
		}
		step(30 * time.Second)
		if err := n.RestartRouter(6); err != nil {
			t.Fatal(err)
		}
		step(120 * time.Second)
	}

	// Sequential leg.
	k := sim.NewKernel(sim.WithSeed(cfg.Seed))
	n, err := bgp.NewNetwork(k, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seqLog := trace.NewLog(0)
	n.SetHooks(bgp.TraceHooks(seqLog))
	drive(t, n, func(d time.Duration) error {
		if d == 0 {
			return k.Run()
		}
		return k.RunUntil(d)
	}, k.Now, n.Router)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := canonicalBytes(t, trace.Merge(seqLog), n.Delivered(), n.Dropped())

	// Sharded leg.
	assign, err := topology.Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := bgp.NewShardedNetwork(g, cfg, assign)
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	logs := make([]*trace.Log, sn.NumShards())
	for s := range logs {
		logs[s] = trace.NewLog(0)
		sn.Shard(s).SetHooks(bgp.TraceHooks(logs[s]))
	}
	grp := sn.Group()
	drive(t, sn, func(d time.Duration) error {
		if d == 0 {
			return grp.Run()
		}
		return grp.RunUntil(d)
	}, grp.Now, sn.Router)
	if err := grp.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sn.CheckConsistency(); err != nil {
		t.Fatalf("ensemble inconsistent after faults: %v", err)
	}
	got := canonicalBytes(t, trace.Merge(logs...), sn.Delivered(), sn.Dropped())
	if !bytes.Equal(want, got) {
		t.Fatalf("sharded faulty trace differs from sequential: %s", diffPoint(want, got))
	}
}

// TestPartitionCoversGraph sanity-checks the partitioner on assorted graphs.
func TestPartitionCoversGraph(t *testing.T) {
	mk := func(f func() (*topology.Graph, error)) *topology.Graph {
		g, err := f()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	graphs := map[string]*topology.Graph{
		"torus6x6": mk(func() (*topology.Graph, error) { return topology.Torus(6, 6) }),
		"line10":   mk(func() (*topology.Graph, error) { return topology.Line(10) }),
		"star9":    mk(func() (*topology.Graph, error) { return topology.Star(9) }),
	}
	for name, g := range graphs {
		for _, k := range []int{1, 2, 3, 4} {
			if k > g.NumNodes() {
				continue
			}
			assign, err := topology.Partition(g, k)
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			st := topology.AnalyzePartition(g, assign)
			if st.Shards != k {
				t.Fatalf("%s k=%d: got %d shards (some empty?): %v", name, k, st.Shards, st.Sizes)
			}
			for s, sz := range st.Sizes {
				if sz == 0 {
					t.Fatalf("%s k=%d: shard %d empty", name, k, s)
				}
			}
			total := 0
			for _, sz := range st.Sizes {
				total += sz
			}
			if total != g.NumNodes() {
				t.Fatalf("%s k=%d: partition covers %d of %d nodes", name, k, total, g.NumNodes())
			}
		}
	}
}

// observeShards installs a fresh trace log on every shard network.
func observeShards(sn *bgp.ShardedNetwork) []*trace.Log {
	logs := make([]*trace.Log, sn.NumShards())
	for s := range logs {
		logs[s] = trace.NewLog(0)
		sn.Shard(s).SetHooks(bgp.TraceHooks(logs[s]))
	}
	return logs
}

// TestShardNetworkRefusesFork: a shard network's cross-shard sends go to its
// ensemble's outbox, so a copy of the network alone would fail at its first
// one; Fork and Snapshot refuse it instead.
func TestShardNetworkRefusesFork(t *testing.T) {
	g, err := topology.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := topology.Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := bgp.NewShardedNetwork(g, bgp.DefaultConfig(), assign)
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	if _, _, err := sn.Shard(0).Fork(); err == nil || !strings.Contains(err.Error(), "cannot fork") {
		t.Errorf("Fork of a shard network: err = %v, want a refusal", err)
	}
	if _, err := sn.Shard(1).Snapshot(); err == nil || !strings.Contains(err.Error(), "cannot fork") {
		t.Errorf("Snapshot of a shard network: err = %v, want a refusal", err)
	}
}
