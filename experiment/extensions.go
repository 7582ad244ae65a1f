package experiment

import (
	"bufio"
	"fmt"
	"io"
	"time"

	"rfd/bgp"
	"rfd/damping"
	"rfd/topology"
)

// This file holds the experiments beyond the paper's figures: the
// variations its companion technical report (Zhang, Massey, Zhang,
// USC-CSD 03-805) reports — partial damping deployment, different flapping
// intervals, different topology sizes — plus a head-to-head of the penalty
// filters discussed in Section 6 (classic damping, Mao et al.'s selective
// damping, RCN-enhanced damping).

// DeploymentRow is one partial-deployment measurement.
type DeploymentRow struct {
	// Percent of routers running damping (the rest forward unfiltered).
	Percent int
	// Conv is the convergence time; Msgs the update count; MaxDamped the
	// peak suppressed-pair count.
	Conv      time.Duration
	Msgs      int
	MaxDamped int
}

// PartialDeployment sweeps the fraction of damping routers on the mesh for
// the given pulse count. Deployment is spread deterministically over the
// mesh by a coprime stride, so 25 % really means one in four routers
// scattered across the torus (not one contiguous quadrant).
func PartialDeployment(o Options, percents []int, pulses int) ([]DeploymentRow, error) {
	params := damping.Cisco()
	nodes := o.MeshRows * o.MeshCols
	rows := make([]DeploymentRow, 0, len(percents))
	for _, pct := range percents {
		if pct < 0 || pct > 100 {
			return nil, fmt.Errorf("experiment: deployment percent %d out of range", pct)
		}
		cfg := o.baseConfig()
		pct := pct
		cfg.DampingSelect = func(id bgp.RouterID) *damping.Params {
			if int(id) >= nodes {
				return nil // the attached originAS never damps
			}
			// 37 is coprime to every mesh size used here, spreading the
			// selected routers over the torus.
			if (int(id)*37%nodes)*100 < pct*nodes {
				return &params
			}
			return nil
		}
		sc, err := o.meshScenario(cfg)
		if err != nil {
			return nil, err
		}
		sc.Pulses = pulses
		res, err := o.run(sc)
		if err != nil {
			return nil, fmt.Errorf("experiment: deployment %d%%: %w", pct, err)
		}
		rows = append(rows, DeploymentRow{
			Percent:   pct,
			Conv:      res.ConvergenceTime,
			Msgs:      res.MessageCount,
			MaxDamped: res.MaxDamped,
		})
	}
	return rows, nil
}

// WriteDeploymentCSV emits the partial-deployment sweep.
func WriteDeploymentCSV(w io.Writer, rows []DeploymentRow) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "deployment_pct,convergence_s,messages,max_damped")
	for _, r := range rows {
		fmt.Fprintf(bw, "%d,%s,%d,%d\n", r.Percent, csvSeconds(r.Conv), r.Msgs, r.MaxDamped)
	}
	return bw.Flush()
}

// FilterRow compares the three penalty filters at one pulse count.
type FilterRow struct {
	Pulses int
	// Classic is plain RFC 2439 damping; Selective is Mao et al.'s
	// exploration heuristic; RCN is the paper's root-cause filter.
	Classic, Selective, RCN       time.Duration
	ClassicMsgs, SelMsgs, RCNMsgs int
	ClassicDamped, SelDamped      int
	RCNDamped                     int
	// Intended is the Section 3 calculation.
	Intended time.Duration
}

// FilterComparison runs the penalty-filter head-to-head on the mesh: the
// paper argues selective damping "does not detect all path exploration
// updates and does not address the problem of secondary charging", while
// RCN eliminates both.
func FilterComparison(o Options, pulses []int) ([]FilterRow, error) {
	classicSc, err := o.meshScenario(o.dampingConfig())
	if err != nil {
		return nil, err
	}
	selCfg := o.dampingConfig()
	selCfg.SelectiveDamping = true
	selSc, err := o.meshScenario(selCfg)
	if err != nil {
		return nil, err
	}
	rcnSc, err := o.meshScenario(o.rcnConfig())
	if err != nil {
		return nil, err
	}
	plainSc, err := o.meshScenario(o.baseConfig())
	if err != nil {
		return nil, err
	}

	pts, err := o.sweeps(pulses, classicSc, selSc, rcnSc)
	if err != nil {
		return nil, err
	}
	classic, selective, rcnRes := pts[0], pts[1], pts[2]
	// t_up for the intended curve.
	plainSc.Pulses = 1
	plain, err := o.run(plainSc)
	if err != nil {
		return nil, err
	}

	rows := make([]FilterRow, len(pulses))
	for i, n := range pulses {
		calc, err := o.intended(n, plain.ConvergenceTime)
		if err != nil {
			return nil, err
		}
		rows[i] = FilterRow{
			Pulses:        n,
			Classic:       classic[i].Result.ConvergenceTime,
			Selective:     selective[i].Result.ConvergenceTime,
			RCN:           rcnRes[i].Result.ConvergenceTime,
			ClassicMsgs:   classic[i].Result.MessageCount,
			SelMsgs:       selective[i].Result.MessageCount,
			RCNMsgs:       rcnRes[i].Result.MessageCount,
			ClassicDamped: classic[i].Result.MaxDamped,
			SelDamped:     selective[i].Result.MaxDamped,
			RCNDamped:     rcnRes[i].Result.MaxDamped,
			Intended:      calc,
		}
	}
	return rows, nil
}

// WriteFilterCSV emits the penalty-filter comparison.
func WriteFilterCSV(w io.Writer, rows []FilterRow) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "pulses,classic_s,selective_s,rcn_s,intended_s,classic_damped,selective_damped,rcn_damped")
	for _, r := range rows {
		fmt.Fprintf(bw, "%d,%s,%s,%s,%s,%d,%d,%d\n", r.Pulses,
			csvSeconds(r.Classic), csvSeconds(r.Selective), csvSeconds(r.RCN),
			csvSeconds(r.Intended), r.ClassicDamped, r.SelDamped, r.RCNDamped)
	}
	return bw.Flush()
}

// IntervalRow is one flapping-interval measurement.
type IntervalRow struct {
	Interval  time.Duration
	Conv      time.Duration
	Msgs      int
	MaxDamped int
	// OriginSuppressed reports whether the origin link itself was damped —
	// slower flapping lets the penalty decay between pulses.
	OriginSuppressed bool
}

// FlapIntervalSweep varies the flapping interval at a fixed pulse count on
// the damped mesh (the tech report's "different flapping intervals").
func FlapIntervalSweep(o Options, intervals []time.Duration, pulses int) ([]IntervalRow, error) {
	rows := make([]IntervalRow, 0, len(intervals))
	for _, iv := range intervals {
		sc, err := o.meshScenario(o.dampingConfig())
		if err != nil {
			return nil, err
		}
		sc.Pulses = pulses
		sc.FlapInterval = iv
		res, err := o.run(sc)
		if err != nil {
			return nil, fmt.Errorf("experiment: interval %v: %w", iv, err)
		}
		rows = append(rows, IntervalRow{
			Interval:         iv,
			Conv:             res.ConvergenceTime,
			Msgs:             res.MessageCount,
			MaxDamped:        res.MaxDamped,
			OriginSuppressed: res.OriginSuppressed,
		})
	}
	return rows, nil
}

// WriteIntervalCSV emits the flapping-interval sweep.
func WriteIntervalCSV(w io.Writer, rows []IntervalRow) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "interval_s,convergence_s,messages,max_damped,origin_suppressed")
	for _, r := range rows {
		fmt.Fprintf(bw, "%s,%s,%d,%d,%t\n", csvSeconds(r.Interval), csvSeconds(r.Conv),
			r.Msgs, r.MaxDamped, r.OriginSuppressed)
	}
	return bw.Flush()
}

// SizeRow is one topology-size measurement.
type SizeRow struct {
	Nodes     int
	Conv      time.Duration
	Msgs      int
	MaxDamped int
}

// TopologySizeSweep varies the mesh size at a fixed pulse count (the tech
// report's "different topology sizes"): square tori of the given side
// lengths.
func TopologySizeSweep(o Options, sides []int, pulses int) ([]SizeRow, error) {
	rows := make([]SizeRow, 0, len(sides))
	for _, side := range sides {
		sc, err := o.scenario(topology.Shape{Rows: side, Cols: side}, o.dampingConfig())
		if err != nil {
			return nil, err
		}
		sc.Pulses = pulses
		res, err := o.run(sc)
		if err != nil {
			return nil, fmt.Errorf("experiment: %dx%d mesh: %w", side, side, err)
		}
		rows = append(rows, SizeRow{
			Nodes:     side * side,
			Conv:      res.ConvergenceTime,
			Msgs:      res.MessageCount,
			MaxDamped: res.MaxDamped,
		})
	}
	return rows, nil
}

// WriteSizeCSV emits the topology-size sweep.
func WriteSizeCSV(w io.Writer, rows []SizeRow) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "nodes,convergence_s,messages,max_damped")
	for _, r := range rows {
		fmt.Fprintf(bw, "%d,%s,%d,%d\n", r.Nodes, csvSeconds(r.Conv), r.Msgs, r.MaxDamped)
	}
	return bw.Flush()
}
