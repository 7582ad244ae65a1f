package experiment

import (
	"bufio"
	"fmt"
	"io"
	"time"

	"rfd/faults"
	"rfd/topology"
)

// This file holds the robustness experiments: the same pulse workload as the
// paper's figures, but run under the faults package's impairment model and
// drained by its convergence watchdog. They probe whether the timer
// interactions the paper analyzes survive realistic message loss — a lossy
// run both converges more slowly (withdrawals and re-announcements go
// missing) and charges damping differently (lost updates never reach the
// penalty counters).

// DefaultLossRates is the message-loss sweep of the robustness experiment:
// no loss, 0.1 %, 1 %, and 5 %.
var DefaultLossRates = []float64{0, 0.001, 0.01, 0.05}

// LossRow is one message-loss measurement, with and without damping.
type LossRow struct {
	// Rate is the uniform per-message loss probability.
	Rate float64
	// Plain are the no-damping numbers, Damped the Cisco-damping ones.
	Plain, Damped LossCell
}

// LossCell is one run's headline numbers under loss.
type LossCell struct {
	// Conv is the convergence time; Msgs the delivered-update count.
	Conv time.Duration
	Msgs int
	// MaxDamped is the peak suppressed-pair count (zero without damping).
	MaxDamped int
	// Dropped counts messages lost to the impairment.
	Dropped uint64
	// Outcome is the watchdog's verdict. Lossy runs commonly end Diverged:
	// a dropped update is never retransmitted, so some RIBs legitimately
	// disagree once the run drains.
	Outcome faults.Outcome
}

// LossSweep measures convergence under uniform message loss on a 5×5 torus,
// with and without route flap damping, draining every run through the
// convergence watchdog. Each rate uses an independently seeded impairment
// RNG so the sweep is a pure function of o.Seed.
func LossSweep(o Options, rates []float64, pulses int) ([]LossRow, error) {
	rows := make([]LossRow, 0, len(rates))
	for i, rate := range rates {
		row := LossRow{Rate: rate}
		for _, damped := range []bool{false, true} {
			cfg := o.baseConfig()
			if damped {
				cfg = o.dampingConfig()
			}
			sc, err := o.scenario(topology.Shape{Rows: 5, Cols: 5}, cfg)
			if err != nil {
				return nil, err
			}
			sc.Pulses = pulses
			// One impairment stream per (rate, damping) run: seeds must
			// differ or every run would see identical drop decisions.
			imp := faults.NewImpairments(o.Seed + uint64(i)*2 + boolBit(damped))
			if err := imp.SetDefault(faults.Profile{Loss: rate}); err != nil {
				return nil, fmt.Errorf("experiment: loss %g: %w", rate, err)
			}
			sc.Impair = imp
			// Around the cache: an impaired run has no fingerprint, and the
			// cache's uncacheable count would log it.
			res, err := (*RunCache)(nil).run(o.ctx(), sc, o.tokens(1))
			if err != nil {
				return nil, fmt.Errorf("experiment: loss %g (damped=%t): %w", rate, damped, err)
			}
			cell := LossCell{
				Conv:      res.ConvergenceTime,
				Msgs:      res.MessageCount,
				MaxDamped: res.MaxDamped,
				Dropped:   res.Dropped,
				Outcome:   res.FaultReport.Outcome,
			}
			if damped {
				row.Damped = cell
			} else {
				row.Plain = cell
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// WriteLossCSV emits the message-loss sweep.
func WriteLossCSV(w io.Writer, rows []LossRow) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "loss_rate,plain_conv_s,plain_msgs,plain_dropped,plain_outcome,"+
		"damped_conv_s,damped_msgs,damped_max_damped,damped_dropped,damped_outcome")
	for _, r := range rows {
		fmt.Fprintf(bw, "%g,%s,%d,%d,%s,%s,%d,%d,%d,%s\n", r.Rate,
			csvSeconds(r.Plain.Conv), r.Plain.Msgs, r.Plain.Dropped, r.Plain.Outcome,
			csvSeconds(r.Damped.Conv), r.Damped.Msgs, r.Damped.MaxDamped,
			r.Damped.Dropped, r.Damped.Outcome)
	}
	return bw.Flush()
}
