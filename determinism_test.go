package rfd_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"rfd/bgp"
	"rfd/damping"
	"rfd/faults"
	"rfd/sim"
	"rfd/topology"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenTracePath is the recorded kernel event trace of the reference run.
// It pins the engine's event-for-event behaviour: any change to scheduling
// order, timer interaction, or fault handling shows up as a trace diff.
const goldenTracePath = "testdata/golden_trace_mesh5x5_faulty.txt"

// eagerTracePath is the same run's trace from the engine that queued every
// MRAI interval end as a bgp.mrai event, whether or not an announcement
// waited for it (recorded before the allocation-free core rewrite and
// unchanged until MRAI expiries became lazy). It is the oracle for the lazy
// engine: see TestGoldenTraceDropsOnlyIdleMRAI.
const eagerTracePath = "testdata/golden_trace_mesh5x5_faulty_eager.txt"

// mesh5FaultyTrace runs the reference scenario — a seeded 5×5 torus with
// Cisco damping, 1% uniform message loss plus delivery jitter, three
// scripted session resets, and two full (withdrawal, announcement) pulses —
// and returns the byte trace of every kernel event, captured via
// sim.Kernel.SetTrace as "<nanoseconds> <event name>" lines.
func mesh5FaultyTrace(t testing.TB) []byte {
	t.Helper()
	g, err := topology.Torus(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := bgp.DefaultConfig()
	params := damping.Cisco()
	cfg.Damping = &params
	cfg.Seed = 1

	k := sim.NewKernel(sim.WithSeed(cfg.Seed))
	n, err := bgp.NewNetwork(k, g, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	scratch := make([]byte, 0, 32)
	k.SetTrace(func(at time.Duration, name string) {
		scratch = strconv.AppendInt(scratch[:0], int64(at), 10)
		scratch = append(scratch, ' ')
		scratch = append(scratch, name...)
		scratch = append(scratch, '\n')
		buf.Write(scratch)
	})

	const prefix = bgp.Prefix("origin/8")
	origin := bgp.RouterID(24)

	// Warm-up (traced too: construction-time scheduling is part of the
	// behaviour under test).
	n.Router(origin).Originate(prefix)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	n.ResetDamping()

	// Fault phase: impairment plus scripted session resets, then two pulses.
	imp := faults.NewImpairments(cfg.Seed)
	if err := imp.SetDefault(faults.Profile{Loss: 0.01, MaxJitter: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	n.SetImpairment(imp)
	plan := faults.NewPlan(
		faults.ResetSession(30*time.Second, 0, 1),
		faults.ResetSession(90*time.Second, 5, 6),
		faults.ResetSession(150*time.Second, 12, 13),
	)
	if err := plan.Apply(n, k.Now(), imp); err != nil {
		t.Fatal(err)
	}
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
	fmt.Fprintf(&buf, "end %d executed %d delivered %d dropped %d\n",
		int64(k.Now()), k.Executed(), n.Delivered(), n.Dropped())
	return buf.Bytes()
}

// TestGoldenTraceMesh5Faulty asserts the engine reproduces, byte for byte,
// the kernel event trace recorded before the allocation-free core rewrite.
// Run with -update to re-record after an intentional behaviour change.
func TestGoldenTraceMesh5Faulty(t *testing.T) {
	got := mesh5FaultyTrace(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenTracePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTracePath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenTracePath, len(got))
		return
	}
	want, err := os.ReadFile(goldenTracePath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to record): %v", err)
	}
	if !bytes.Equal(got, want) {
		line := 1
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			if got[i] == '\n' {
				line++
			}
			i++
		}
		t.Fatalf("trace diverges from %s at byte %d (line %d): got %d bytes, want %d bytes",
			goldenTracePath, i, line, len(got), len(want))
	}
}

// TestGoldenTraceRepeatable guards the golden test itself: two in-process
// runs of the reference scenario must agree, so a golden failure always
// means a behaviour change, never nondeterminism in the harness.
func TestGoldenTraceRepeatable(t *testing.T) {
	a := mesh5FaultyTrace(t)
	b := mesh5FaultyTrace(t)
	if !bytes.Equal(a, b) {
		t.Fatal("two identical runs produced different traces")
	}
}

// TestGoldenTraceDropsOnlyIdleMRAI holds the engine to the eager-MRAI trace:
// the reference run fires exactly the eager run's events, in order and at the
// same instants, minus some bgp.mrai lines (the interval ends no announcement
// waited for), and its end line differs only in the executed count, by the
// number of lines dropped.
func TestGoldenTraceDropsOnlyIdleMRAI(t *testing.T) {
	eager, err := os.ReadFile(eagerTracePath)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimSuffix(string(mesh5FaultyTrace(t)), "\n"), "\n")
	want := strings.Split(strings.TrimSuffix(string(eager), "\n"), "\n")
	gotEnd, wantEnd := got[len(got)-1], want[len(want)-1]
	got, want = got[:len(got)-1], want[:len(want)-1]

	i, dropped := 0, 0
	for _, line := range want {
		if i < len(got) && got[i] == line {
			i++
			continue
		}
		if !strings.HasSuffix(line, " bgp.mrai") {
			t.Fatalf("eager line %q is missing from the trace (trace line %d)", line, i+1)
		}
		dropped++
	}
	if i != len(got) {
		t.Fatalf("trace line %d %q has no eager counterpart", i+1, got[i])
	}
	if dropped == 0 {
		t.Fatal("no idle bgp.mrai line dropped: the eager oracle no longer tests anything")
	}

	// "end <now> executed <n> delivered <d> dropped <x>"
	gf, wf := strings.Fields(gotEnd), strings.Fields(wantEnd)
	if len(gf) != 8 || len(wf) != 8 || gf[2] != "executed" || wf[2] != "executed" {
		t.Fatalf("malformed end lines %q, %q", gotEnd, wantEnd)
	}
	gn, _ := strconv.Atoi(gf[3])
	wn, _ := strconv.Atoi(wf[3])
	if gn != wn-dropped || gn != len(got) {
		t.Fatalf("executed %d, eager %d, %d lines dropped, %d traced", gn, wn, dropped, len(got))
	}
	gf[3], wf[3] = "", ""
	if strings.Join(gf, " ") != strings.Join(wf, " ") {
		t.Fatalf("end line %q differs from eager %q beyond executed", gotEnd, wantEnd)
	}
}
