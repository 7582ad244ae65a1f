package rfd_test

import (
	"testing"

	"rfd/bgp"
	"rfd/damping"
	"rfd/experiment"
	"rfd/topology"
)

// sweepBenchScenario is the reference sweep workload: the paper-scale 10×10
// damped mesh, swept over pulse counts 0..10 (the Fig 8/9 x-axis).
func sweepBenchScenario(b *testing.B) (experiment.Scenario, []int) {
	b.Helper()
	g, err := topology.Torus(10, 10)
	if err != nil {
		b.Fatal(err)
	}
	cfg := bgp.DefaultConfig()
	params := damping.Cisco()
	cfg.Damping = &params
	return experiment.Scenario{Graph: g, ISP: 0, Config: cfg}, experiment.PulseRange(0, 10)
}

// BenchmarkSweepFork measures what a sweep shares between its points.
// "scratch" shares nothing — every pulse point converges the network from
// nothing; "fork" shares the warm-up — converge once, park the checkpoint,
// fork it per point and replay that point's pulses from the first; "chain"
// shares the pulses as well — experiment.SweepParallel's model: one trajectory
// flapped through every count and forked at each, so each pulse is simulated
// once. All three run the points sequentially (chain with one worker), so the
// comparison isolates sharing from parallelism, and all three report the
// 10-pulse point. scratch and fork are recorded in BENCH_sweep.json; refresh
// with
//
//	go test -run '^$' -bench BenchmarkSweepFork -benchtime 3x -benchmem .
func BenchmarkSweepFork(b *testing.B) {
	b.Run("scratch", func(b *testing.B) {
		base, pulses := sweepBenchScenario(b)
		b.ReportAllocs()
		var last *experiment.Result
		for i := 0; i < b.N; i++ {
			for _, n := range pulses {
				sc := base
				sc.Pulses = n
				res, err := experiment.Run(sc)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
		}
		b.ReportMetric(last.ConvergenceTime.Seconds(), "conv_s")
		b.ReportMetric(float64(last.MessageCount), "msgs")
	})
	b.Run("fork", func(b *testing.B) {
		base, pulses := sweepBenchScenario(b)
		b.ReportAllocs()
		var last *experiment.Result
		for i := 0; i < b.N; i++ {
			cp, err := experiment.NewCheckpoint(base)
			if err != nil {
				b.Fatal(err)
			}
			for _, n := range pulses {
				sc := base
				sc.Pulses = n
				res, err := cp.Run(sc)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
		}
		b.ReportMetric(last.ConvergenceTime.Seconds(), "conv_s")
		b.ReportMetric(float64(last.MessageCount), "msgs")
	})
	b.Run("chain", func(b *testing.B) {
		base, pulses := sweepBenchScenario(b)
		b.ReportAllocs()
		var last *experiment.Result
		for i := 0; i < b.N; i++ {
			pts, err := experiment.SweepParallel(base, pulses, 1)
			if err != nil {
				b.Fatal(err)
			}
			last = pts[len(pts)-1].Result
		}
		b.ReportMetric(last.ConvergenceTime.Seconds(), "conv_s")
		b.ReportMetric(float64(last.MessageCount), "msgs")
	})
}
