package experiment

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rfd/faults"
	"rfd/trace"
)

// assertResultsEqual fails unless two runs of one scenario measured the same
// Result, field for field.
func assertResultsEqual(t *testing.T, want, got *Result) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("Results differ:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestRunShardedMatchesSequential is the experiment-level equivalence
// property: Run with Shards>1 produces the same Result as Shards<=1.
func TestRunShardedMatchesSequential(t *testing.T) {
	mesh := Scenario{
		Graph:  smallMesh(t),
		ISP:    7,
		Config: dampingCfg(),
		Pulses: 3,
		Watch:  []PenaltyWatch{{Router: 7, Peer: 25}}, // ISP watching the origin
	}
	mesh.Config.Seed = 9

	want, err := Run(mesh)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sc := mesh
			sc.Shards = shards
			got, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			assertResultsEqual(t, want, got)
		})
	}
}

// TestShardedValidation pins what a sharded scenario may not do, each refusal
// naming the field or the operation it refuses.
func TestShardedValidation(t *testing.T) {
	g := smallMesh(t)
	valid := func() Scenario {
		return Scenario{Graph: g, ISP: 0, Config: dampingCfg(), Pulses: 1}
	}
	sharded := func() Scenario {
		sc := valid()
		sc.Shards = 2
		return sc
	}
	wantErr := func(t *testing.T, err error, want string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("want an error naming %q, got %v", want, err)
		}
	}
	t.Run("negative", func(t *testing.T) {
		sc := valid()
		sc.Shards = -1
		if _, err := Run(sc); err == nil {
			t.Fatal("accepted negative shard count")
		}
	})
	// Every faulted run drains under the watchdog and carries its report.
	t.Run("watchdog", func(t *testing.T) {
		sc := valid()
		sc.Faults = faults.NewPlan()
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.FaultReport == nil {
			t.Fatal("a faulted run carries no FaultReport")
		}
	})
	t.Run("check", func(t *testing.T) {
		sc := sharded()
		sc.Check = true
		_, err := Run(sc)
		wantErr(t, err, "invariant checker")
	})
	// Any impairment model is refused: its one global stream is consumed in
	// the sequential engine's send order, which a sharded run does not have.
	t.Run("global-stream-impairment", func(t *testing.T) {
		sc := sharded()
		sc.Impair = faults.NewImpairments(1)
		_, err := Run(sc)
		wantErr(t, err, "Impair needs the sequential engine")
	})
	t.Run("trace", func(t *testing.T) {
		sc := sharded()
		sc.Trace = trace.NewLog(0)
		_, err := Run(sc)
		wantErr(t, err, "Trace needs the sequential engine")
	})
	t.Run("faults", func(t *testing.T) {
		sc := sharded()
		sc.Faults = faults.NewPlan()
		_, err := Run(sc)
		wantErr(t, err, "Faults needs the sequential engine")
	})
	// A link flap is a fault, and a shard network takes none.
	t.Run("flap-via-link", func(t *testing.T) {
		sc := sharded()
		sc.FlapViaLink = true
		_, err := Run(sc)
		wantErr(t, err, "FlapViaLink needs the sequential engine")
	})
	// A sharded engine cannot fork, so a sweep of several counts is refused
	// before any cache lookup or warm-up — also when every point is cached.
	// One count, asked for once or twice, is a Run.
	pulses := []int{0, 1}
	t.Run("sweep", func(t *testing.T) {
		_, err := SweepParallel(sharded(), pulses, 1)
		wantErr(t, err, "Sweep needs the sequential engine")
	})
	t.Run("sweep-cached", func(t *testing.T) {
		c := NewRunCache()
		if _, err := c.Sweep(valid(), pulses, 1); err != nil {
			t.Fatal(err)
		}
		hits, misses, _ := c.Stats()
		pts, err := c.Sweep(sharded(), pulses, 1)
		wantErr(t, err, "Sweep needs the sequential engine")
		if pts != nil {
			t.Fatalf("a refused sweep returned %d points", len(pts))
		}
		if h, m, _ := c.Stats(); h != hits || m != misses {
			t.Fatalf("a refused sweep looked up the cache: hits %d -> %d, misses %d -> %d", hits, h, misses, m)
		}

		pts, err = c.Sweep(sharded(), []int{1, 1}, 1)
		if err != nil || pts[0].Result == nil || pts[0].Result != pts[1].Result {
			t.Fatalf("a sharded sweep of one count: %v", err)
		}
	})
	t.Run("NewCheckpointContext", func(t *testing.T) {
		_, err := NewCheckpointContext(context.Background(), sharded())
		wantErr(t, err, "NewCheckpointContext")
	})
	t.Run("CheckpointPool.Get", func(t *testing.T) {
		_, err := NewCheckpointPool(2).Get(context.Background(), sharded())
		wantErr(t, err, "CheckpointPool.Get")
	})
	// A checkpoint parks a sequential engine: it refuses a sharded scenario
	// rather than run it on the wrong engine.
	t.Run("checkpoint-engine-mismatch", func(t *testing.T) {
		cp, err := NewCheckpointContext(context.Background(), valid())
		if err != nil {
			t.Fatal(err)
		}
		_, err = cp.Run(sharded())
		wantErr(t, err, "Checkpoint.Run")
	})
}

// TestFingerprintIgnoresShards pins the cache-identity design: the shard
// count is an execution detail, so a sequential run's cached Result may stand
// in for a sharded one and vice versa.
func TestFingerprintIgnoresShards(t *testing.T) {
	sc := Scenario{Graph: smallMesh(t), ISP: 0, Config: dampingCfg(), Pulses: 2}
	a, ok := sc.Fingerprint()
	if !ok {
		t.Fatal("unfingerprintable")
	}
	sc.Shards = 8
	b, ok := sc.Fingerprint()
	if !ok {
		t.Fatal("sharded scenario unfingerprintable")
	}
	if a != b {
		t.Fatalf("fingerprint depends on shard count: %s vs %s", a, b)
	}
}
