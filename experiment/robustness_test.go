package experiment

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"rfd/faults"
	"rfd/sim"
	"rfd/topology"
)

func TestLossSweep(t *testing.T) {
	o := DefaultOptions()
	rows, err := LossSweep(o, DefaultLossRates, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(DefaultLossRates) {
		t.Fatalf("got %d rows, want %d", len(rows), len(DefaultLossRates))
	}
	// Lossless baseline: nothing dropped, clean convergence, and damping
	// active under the flap workload.
	base := rows[0]
	if base.Rate != 0 || base.Plain.Dropped != 0 || base.Damped.Dropped != 0 {
		t.Fatalf("lossless row dropped messages: %+v", base)
	}
	if base.Plain.Outcome != faults.Converged || base.Damped.Outcome != faults.Converged {
		t.Fatalf("lossless row did not converge: plain=%s damped=%s",
			base.Plain.Outcome, base.Damped.Outcome)
	}
	if base.Damped.MaxDamped == 0 {
		t.Fatal("2-pulse flap never suppressed any link under Cisco damping")
	}
	if base.Damped.Conv <= base.Plain.Conv {
		t.Fatalf("damping did not extend convergence (%v vs %v): the paper's central effect is gone",
			base.Damped.Conv, base.Plain.Conv)
	}
	// Loss of 1 % and up must actually drop messages (0.1 % may drop
	// nothing on a run this small), and every run must terminate via the
	// watchdog rather than the event limit.
	for _, r := range rows[1:] {
		if r.Rate >= 0.01 && r.Plain.Dropped == 0 && r.Damped.Dropped == 0 {
			t.Fatalf("rate %g dropped nothing in either run", r.Rate)
		}
		for _, c := range []LossCell{r.Plain, r.Damped} {
			if c.Outcome != faults.Converged && c.Outcome != faults.Diverged {
				t.Fatalf("rate %g ended %s", r.Rate, c.Outcome)
			}
		}
	}
	// Determinism: the sweep is a pure function of the options.
	again, err := LossSweep(o, DefaultLossRates, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if rows[i] != again[i] {
			t.Fatalf("row %d differs between identical sweeps:\n%+v\n%+v", i, rows[i], again[i])
		}
	}

	var sb strings.Builder
	if err := WriteLossCSV(&sb, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != len(rows)+1 {
		t.Fatalf("CSV has %d lines, want %d", len(lines), len(rows)+1)
	}
	if !strings.HasPrefix(lines[0], "loss_rate,") {
		t.Fatalf("bad CSV header %q", lines[0])
	}
}

func TestScenarioFaultPlan(t *testing.T) {
	// A session reset mid-flap must charge damping beyond the lossless
	// baseline, and the watchdog report must land on the Result. The
	// baseline's plan is empty: it runs watched, with nothing injected.
	g, err := topology.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	base := Scenario{Graph: g, ISP: 0, Config: o.dampingConfig(), Pulses: 1,
		Faults: faults.NewPlan()}
	clean, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if clean.FaultReport == nil || clean.FaultReport.Outcome != faults.Converged {
		t.Fatalf("clean run report = %v, want converged", clean.FaultReport)
	}

	faulty := base
	faulty.Faults = faults.NewPlan(
		faults.ResetSession(30*time.Second, 1, 2),
		faults.ResetSession(90*time.Second, 1, 2),
		faults.ResetSession(150*time.Second, 1, 2),
	)
	res, err := Run(faulty)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultReport == nil {
		t.Fatal("no fault report on a run with a fault plan")
	}
	if res.MessageCount <= clean.MessageCount {
		t.Fatalf("session churn generated no extra updates (%d vs %d)",
			res.MessageCount, clean.MessageCount)
	}
	if res.Dropped != 0 {
		// Resets at quiet instants sever no in-flight messages.
		t.Logf("note: %d messages severed by resets", res.Dropped)
	}

	// An invalid plan must be rejected, not silently dropped.
	bad := base
	bad.Faults = faults.NewPlan(faults.CrashRouter(0, 99, 0))
	if _, err := Run(bad); err == nil {
		t.Fatal("Run accepted a plan naming an unknown router")
	}
}

// TestScenarioLivelockAborts: a watched drain that ends in a livelock fails
// the run with an error naming it, and one aborted by a tripped context fails
// it with the context's typed stop. (A real livelock needs the kernel's whole
// event budget; faults.TestWatchdogLivelock drives one on a small budget.)
func TestScenarioLivelockAborts(t *testing.T) {
	livelock := &faults.Report{Outcome: faults.Livelock, Events: 5,
		Err: fmt.Errorf("faults: watchdog event budget exhausted: %w", sim.ErrEventLimit)}
	if err := watchErr(context.Background(), livelock); err == nil || !strings.Contains(err.Error(), "livelock") {
		t.Fatalf("err = %v, want a livelock abort", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	aborted := &faults.Report{Outcome: faults.Aborted,
		Err: fmt.Errorf("faults: watchdog aborted: %w", fmt.Errorf("%w: %w", sim.ErrInterrupted, context.Canceled))}
	if err := watchErr(ctx, aborted); !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	for _, o := range []faults.Outcome{faults.Converged, faults.Diverged} {
		if err := watchErr(context.Background(), &faults.Report{Outcome: o}); err != nil {
			t.Fatalf("%s drain: err = %v, want the run to finish", o, err)
		}
	}
}
