package experiment

import (
	"bufio"
	"fmt"
	"io"
	"time"
)

// WriteReport runs the full evaluation at the given scale and renders a
// self-contained Markdown report: every paper figure as a table plus the
// extension experiments, with the headline checks (suppression onset,
// critical point, RCN tracking) called out. This is what `rfdfig -fig
// report` writes; docs/report.md is its committed paper-scale output, and
// EXPERIMENTS.md the curated version of the same data.
func WriteReport(w io.Writer, o Options) error {
	bw := bufio.NewWriter(w)

	fmt.Fprintf(bw, "# Route Flap Damping — reproduction report\n\n")
	fmt.Fprintf(bw, "Scale: %d×%d mesh, %d-node Internet-derived, %d-node policy topology, pulses 0–%d, interval %s, seed %d.\n\n",
		o.MeshRows, o.MeshCols, o.InternetNodes, o.PolicyNodes, o.MaxPulses, o.FlapInterval, o.Seed)

	// Table 1.
	fmt.Fprintf(bw, "## Table 1 — damping parameters\n\n")
	fmt.Fprintf(bw, "| parameter | Cisco | Juniper |\n|---|---|---|\n")
	for _, r := range Table1() {
		fmt.Fprintf(bw, "| %s | %s | %s |\n", r.Parameter, r.Cisco, r.Juniper)
	}
	fmt.Fprintln(bw)

	// Figures 8/9/13/14.
	eval, err := Eval(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "## Figures 8 & 13 — convergence time (s) vs. pulses\n\n")
	fmt.Fprintf(bw, "| pulses | no damping | damping (mesh) | damping (internet) | damping+RCN | calculation |\n")
	fmt.Fprintf(bw, "|---|---|---|---|---|---|\n")
	secs := func(d time.Duration) string { return fmt.Sprintf("%.0f", d.Seconds()) }
	for _, r := range eval.Rows {
		fmt.Fprintf(bw, "| %d | %s | %s | %s | %s | %s |\n", r.Pulses,
			secs(r.NoDampingMeshConv), secs(r.DampingMeshConv),
			secs(r.DampingInternetConv), secs(r.RCNMeshConv), secs(r.CalcConv))
	}
	if eval.Nh > 0 {
		fmt.Fprintf(bw, "\nCritical point **Nh = %d**: from there on, measured damping convergence matches the Section 3 calculation (the paper reports Nh = 5 at paper scale).\n\n", eval.Nh)
	} else {
		fmt.Fprintf(bw, "\nNo critical point within the swept range.\n\n")
	}
	fmt.Fprintf(bw, "## Figures 9 & 14 — message count vs. pulses\n\n")
	fmt.Fprintf(bw, "| pulses | no damping | damping (mesh) | damping (internet) | damping+RCN |\n|---|---|---|---|---|\n")
	for _, r := range eval.Rows {
		fmt.Fprintf(bw, "| %d | %d | %d | %d | %d |\n", r.Pulses,
			r.NoDampingMeshMsgs, r.DampingMeshMsgs, r.DampingInternetMsgs, r.RCNMeshMsgs)
	}
	fmt.Fprintln(bw)

	// Figure 10.
	fig10, err := Fig10(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "## Figure 10 — damping episodes (n = 1, 3, 5)\n\n")
	fmt.Fprintf(bw, "| n | convergence (s) | updates | peak damped links | noisy reuses | silent reuses | phases |\n")
	fmt.Fprintf(bw, "|---|---|---|---|---|---|---|\n")
	for _, n := range []int{1, 3, 5} {
		r := fig10.Runs[n]
		fmt.Fprintf(bw, "| %d | %s | %d | %d | %d | %d | %s |\n", n,
			secs(r.ConvergenceTime), r.MessageCount, r.MaxDamped,
			r.NoisyReuses, r.SilentReuses, r.Phases)
	}
	fmt.Fprintln(bw)

	// Figure 15.
	fig15, err := Fig15(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "## Figure 15 — routing policy impact (%d nodes)\n\n", fig15.Nodes)
	fmt.Fprintf(bw, "| pulses | with policy (s) | no policy (s) | intended (s) |\n|---|---|---|---|\n")
	for _, r := range fig15.Rows {
		fmt.Fprintf(bw, "| %d | %s | %s | %s |\n", r.Pulses,
			secs(r.WithPolicy), secs(r.NoPolicy), secs(r.Intended))
	}
	fmt.Fprintln(bw)

	// Extensions.
	filters, err := FilterComparison(o, PulseRange(1, min(3, o.MaxPulses)))
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "## Penalty filters — classic vs. selective vs. RCN\n\n")
	fmt.Fprintf(bw, "| pulses | classic (s) | selective (s) | RCN (s) | intended (s) | classic damped | selective damped | RCN damped |\n")
	fmt.Fprintf(bw, "|---|---|---|---|---|---|---|---|\n")
	for _, r := range filters {
		fmt.Fprintf(bw, "| %d | %s | %s | %s | %s | %d | %d | %d |\n", r.Pulses,
			secs(r.Classic), secs(r.Selective), secs(r.RCN), secs(r.Intended),
			r.ClassicDamped, r.SelDamped, r.RCNDamped)
	}
	fmt.Fprintln(bw)

	deployment, err := PartialDeployment(o, []int{0, 25, 50, 75, 100}, 1)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "## Partial deployment (single pulse)\n\n")
	fmt.Fprintf(bw, "| deployed %% | convergence (s) | messages | peak damped |\n|---|---|---|---|\n")
	for _, r := range deployment {
		fmt.Fprintf(bw, "| %d | %s | %d | %d |\n", r.Percent, secs(r.Conv), r.Msgs, r.MaxDamped)
	}
	fmt.Fprintln(bw)

	events, err := ConvergenceEvents(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "## Plain-BGP convergence baseline (Labovitz events)\n\n")
	fmt.Fprintf(bw, "| event | convergence (s) | messages |\n|---|---|---|\n")
	for _, r := range events {
		fmt.Fprintf(bw, "| %s | %s | %d |\n", r.Event, secs(r.Convergence), r.Messages)
	}
	fmt.Fprintln(bw)

	return bw.Flush()
}
