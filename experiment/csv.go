package experiment

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"time"
)

// csvSeconds renders a duration as whole seconds, the unit used on the
// paper's axes.
func csvSeconds(d time.Duration) string {
	return fmt.Sprintf("%.0f", d.Seconds())
}

// WriteTable1CSV emits Table 1 as CSV (parameter, cisco, juniper).
func WriteTable1CSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "parameter,cisco,juniper")
	for _, row := range Table1() {
		fmt.Fprintf(bw, "%q,%s,%s\n", row.Parameter, row.Cisco, row.Juniper)
	}
	return bw.Flush()
}

// WriteCSV emits the Fig 3 penalty trace: time_s, penalty, cutoff, reuse.
func (d *Fig3Data) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "time_s,penalty,cutoff,reuse")
	for _, p := range d.Trace {
		fmt.Fprintf(bw, "%s,%.1f,%.0f,%.0f\n", csvSeconds(p.At), p.Penalty, d.Cutoff, d.Reuse)
	}
	return bw.Flush()
}

// WriteCSV emits the Fig 7 penalty trace (the watched remote router).
func (d *Fig7Data) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# watched router %d, peer %d; %d secondary-charging increments\n",
		d.Watched.Router, d.Watched.Peer, d.Recharges)
	fmt.Fprintln(bw, "time_s,penalty,cutoff,reuse")
	for _, p := range d.Trace {
		fmt.Fprintf(bw, "%s,%.1f,%.0f,%.0f\n", csvSeconds(p.At), p.Penalty, d.Cutoff, d.Reuse)
	}
	return bw.Flush()
}

// WriteFig8CSV emits the convergence-time comparison (Fig 8): pulses,
// no-damping mesh, full damping mesh, full damping Internet, calculation.
func (d *EvalData) WriteFig8CSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "pulses,no_damping_mesh_s,full_damping_mesh_s,full_damping_internet_s,calculation_s")
	for _, r := range d.Rows {
		fmt.Fprintf(bw, "%d,%s,%s,%s,%s\n", r.Pulses,
			csvSeconds(r.NoDampingMeshConv), csvSeconds(r.DampingMeshConv),
			csvSeconds(r.DampingInternetConv), csvSeconds(r.CalcConv))
	}
	return bw.Flush()
}

// WriteFig9CSV emits the message-count comparison (Fig 9).
func (d *EvalData) WriteFig9CSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "pulses,no_damping_mesh,full_damping_mesh,full_damping_internet")
	for _, r := range d.Rows {
		fmt.Fprintf(bw, "%d,%d,%d,%d\n", r.Pulses,
			r.NoDampingMeshMsgs, r.DampingMeshMsgs, r.DampingInternetMsgs)
	}
	return bw.Flush()
}

// WriteFig13CSV emits the RCN convergence comparison (Fig 13): Fig 8's
// columns plus the RCN-enhanced damping curve.
func (d *EvalData) WriteFig13CSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "pulses,no_damping_mesh_s,full_damping_mesh_s,full_damping_internet_s,damping_rcn_s,calculation_s")
	for _, r := range d.Rows {
		fmt.Fprintf(bw, "%d,%s,%s,%s,%s,%s\n", r.Pulses,
			csvSeconds(r.NoDampingMeshConv), csvSeconds(r.DampingMeshConv),
			csvSeconds(r.DampingInternetConv), csvSeconds(r.RCNMeshConv), csvSeconds(r.CalcConv))
	}
	return bw.Flush()
}

// WriteFig14CSV emits the RCN message-count comparison (Fig 14).
func (d *EvalData) WriteFig14CSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "pulses,no_damping_mesh,full_damping_mesh,full_damping_internet,damping_rcn")
	for _, r := range d.Rows {
		fmt.Fprintf(bw, "%d,%d,%d,%d,%d\n", r.Pulses,
			r.NoDampingMeshMsgs, r.DampingMeshMsgs, r.DampingInternetMsgs, r.RCNMeshMsgs)
	}
	return bw.Flush()
}

// WriteCSV emits the Fig 10 series: for each run (n = 1, 3, 5), the 5 s
// update series and the damped-link count sampled on the same grid.
func (d *Fig10Data) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "pulses,time_s,updates,damped_links")
	ns := make([]int, 0, len(d.Runs))
	for n := range d.Runs {
		ns = append(ns, n)
	}
	sort.Ints(ns)
	for _, n := range ns {
		res := d.Runs[n]
		end := res.EndTime
		for _, bin := range res.Updates.Bins(0, end, d.BinWidth) {
			fmt.Fprintf(bw, "%d,%s,%d,%d\n", n, csvSeconds(bin.Start), bin.Count,
				res.Damped.ValueAt(bin.Start+d.BinWidth-1))
		}
	}
	return bw.Flush()
}

// WriteCSV emits the Fig 15 policy comparison.
func (d *Fig15Data) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %d-node internet-derived topology\n", d.Nodes)
	fmt.Fprintln(bw, "pulses,with_policy_s,no_policy_s,intended_s,with_policy_msgs,no_policy_msgs")
	for _, r := range d.Rows {
		fmt.Fprintf(bw, "%d,%s,%s,%s,%d,%d\n", r.Pulses,
			csvSeconds(r.WithPolicy), csvSeconds(r.NoPolicy), csvSeconds(r.Intended),
			r.PolicyMsgs, r.NoPolicyMsgs)
	}
	return bw.Flush()
}
