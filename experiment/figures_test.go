package experiment

import (
	"testing"
	"time"
)

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1()
	if len(rows) != 7 {
		t.Fatalf("Table 1 has %d rows, want 7", len(rows))
	}
	want := map[string][2]string{
		"Withdrawal Penalty (PW)":      {"1000", "1000"},
		"Re-announcement Penalty (PA)": {"0", "1000"},
		"Attributes Change Penalty":    {"500", "500"},
		"Cut-off Threshold (Pcut)":     {"2000", "3000"},
		"Half Life (minute) (H)":       {"15", "15"},
		"Reuse Threshold (Preuse)":     {"750", "750"},
		"Max Hold-down Time (minute)":  {"60", "60"},
	}
	for _, row := range rows {
		w, ok := want[row.Parameter]
		if !ok {
			t.Fatalf("unexpected row %q", row.Parameter)
		}
		if row.Cisco != w[0] || row.Juniper != w[1] {
			t.Fatalf("%s: got (%s, %s), want (%s, %s)",
				row.Parameter, row.Cisco, row.Juniper, w[0], w[1])
		}
	}
}

func TestFig3Shape(t *testing.T) {
	data, err := Fig3(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Trace) == 0 {
		t.Fatal("empty trace")
	}
	if data.Cutoff != 2000 || data.Reuse != 750 {
		t.Fatalf("thresholds (%v, %v)", data.Cutoff, data.Reuse)
	}
	// The trace must cross the cutoff (suppression) and later fall back
	// below reuse before the figure's horizon.
	if data.SuppressedSince == 0 {
		t.Fatal("trace never crossed the cutoff")
	}
	if data.ReusedAt <= data.SuppressedSince {
		t.Fatalf("reuse %v before suppression %v", data.ReusedAt, data.SuppressedSince)
	}
	if data.ReusedAt > 2640*time.Second {
		t.Fatalf("reuse at %v beyond the figure horizon", data.ReusedAt)
	}
}

func TestFig7SecondaryCharging(t *testing.T) {
	data, err := Fig7(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Trace) == 0 {
		t.Fatal("empty penalty trace")
	}
	// The chosen trace must show charging above the cutoff.
	max := 0.0
	for _, p := range data.Trace {
		if p.Penalty > max {
			max = p.Penalty
		}
	}
	if max <= data.Cutoff {
		t.Fatalf("watched penalty peaked at %v, below cutoff %v", max, data.Cutoff)
	}
	// And recharges after charging ended (secondary charging).
	if data.Recharges == 0 {
		t.Fatal("no secondary charging observed")
	}
	if data.Result.Pulses != 1 {
		t.Fatalf("Fig7 ran %d pulses, want 1", data.Result.Pulses)
	}
}

func TestEvalSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-sweep evaluation")
	}
	o := testOptions()
	data, err := Eval(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Rows) != o.MaxPulses+1 {
		t.Fatalf("rows = %d", len(data.Rows))
	}
	r0 := data.Rows[0]
	if r0.NoDampingMeshMsgs != 0 || r0.DampingMeshMsgs != 0 {
		t.Fatalf("zero-pulse row has messages: %+v", r0)
	}
	for _, r := range data.Rows[1:] {
		// No-damping convergence stays at ordinary BGP scale.
		if r.NoDampingMeshConv > 10*time.Minute {
			t.Fatalf("n=%d: no-damping convergence %v too long", r.Pulses, r.NoDampingMeshConv)
		}
		// Damping convergence with any suppression is reuse-timer scale.
		if r.Pulses >= 1 && r.DampingMeshConv < r.NoDampingMeshConv {
			t.Fatalf("n=%d: damping converged faster than no damping", r.Pulses)
		}
		// Calculation: n < 3 → tup; n >= 3 → > 20 minutes.
		if r.Pulses < 3 && r.CalcConv > 10*time.Minute {
			t.Fatalf("n=%d: calc %v should be plain tup", r.Pulses, r.CalcConv)
		}
		if r.Pulses >= 3 && r.CalcConv < 20*time.Minute {
			t.Fatalf("n=%d: calc %v should include reuse delay", r.Pulses, r.CalcConv)
		}
		// RCN tracks the calculation: within 10 minutes for every n.
		diff := r.RCNMeshConv - r.CalcConv
		if diff < 0 {
			diff = -diff
		}
		if diff > 10*time.Minute {
			t.Fatalf("n=%d: RCN %v deviates from calc %v", r.Pulses, r.RCNMeshConv, r.CalcConv)
		}
	}
	// No-damping message count grows with pulses.
	if data.Rows[1].NoDampingMeshMsgs >= data.Rows[len(data.Rows)-1].NoDampingMeshMsgs {
		t.Fatal("no-damping message count not increasing")
	}
	// The critical point at this scale is the one rfdfig -fig fig8 -small
	// prints (paper scale: 5).
	if data.Nh != 4 {
		t.Fatalf("critical point Nh = %d, want 4", data.Nh)
	}
}

func TestFig10Series(t *testing.T) {
	if testing.Short() {
		t.Skip("three full damped runs")
	}
	data, err := Fig10(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3, 5} {
		res := data.Runs[n]
		if res == nil {
			t.Fatalf("missing run n=%d", n)
		}
		bins := res.Updates.Bins(0, res.EndTime, data.BinWidth)
		total := 0
		for _, b := range bins {
			total += b.Count
		}
		if total != res.MessageCount {
			t.Fatalf("n=%d: binned %d != counted %d", n, total, res.MessageCount)
		}
		if res.MaxDamped == 0 {
			t.Fatalf("n=%d: no damped links", n)
		}
		// Ceiling: each of the 2E+1 links can be suppressed from both ends.
		limit := 2*(res.Updates.Count()) + 1000 // loose sanity ceiling
		if res.MaxDamped > limit {
			t.Fatalf("n=%d: damped count %d insane", n, res.MaxDamped)
		}
	}
	// n=5: the origin link is suppressed and its timer outlasts the rest
	// (muffling): noisy reuses collapse to ~1.
	if data.Runs[5].NoisyReuses > data.Runs[1].NoisyReuses {
		t.Fatal("muffling did not reduce noisy reuses at n=5")
	}
	if !data.Runs[5].OriginSuppressed || !data.Runs[3].OriginSuppressed {
		t.Fatal("origin not suppressed at n>=3")
	}
	if data.Runs[1].OriginSuppressed {
		t.Fatal("origin suppressed at n=1")
	}
}

func TestFig15PolicyHelps(t *testing.T) {
	if testing.Short() {
		t.Skip("policy sweeps")
	}
	o := testOptions()
	o.MaxPulses = 2
	data, err := Fig15(o)
	if err != nil {
		t.Fatal(err)
	}
	if data.Nodes != o.PolicyNodes {
		t.Fatalf("nodes = %d", data.Nodes)
	}
	// For the single-pulse row, policy must reduce updates (fewer alternate
	// paths to explore) — the Section 7 mechanism.
	r1 := data.Rows[1]
	if r1.PolicyMsgs >= r1.NoPolicyMsgs {
		t.Fatalf("policy did not reduce messages: %d vs %d", r1.PolicyMsgs, r1.NoPolicyMsgs)
	}
}
