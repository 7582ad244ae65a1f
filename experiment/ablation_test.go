package experiment

import (
	"testing"

	"rfd/damping"
	"rfd/topology"
)

// The ablations of EXPERIMENTS.md at small scale: path exploration is what
// drives false suppression, so removing alternate paths or MRAI pacing moves
// it, and Juniper's larger announcement penalty suppresses the origin link
// itself where Cisco's does not.

func runAblation(t *testing.T, sc Scenario) *Result {
	t.Helper()
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAblationRingHasNoFalseSuppression: a ring offers one alternate path
// per router, too little exploration to charge any penalty to suppression.
func TestAblationRingHasNoFalseSuppression(t *testing.T) {
	g, err := topology.Ring(30)
	if err != nil {
		t.Fatal(err)
	}
	res := runAblation(t, Scenario{Graph: g, ISP: 0, Config: dampingCfg(), Pulses: 1})
	if res.MaxDamped != 0 {
		t.Errorf("ring-30, one pulse: %d links damped, want 0", res.MaxDamped)
	}
}

// TestAblationMRAIPacesExploration: without MRAI pacing every transient path
// is advertised, so a single flap costs more messages, damps more links and
// converges later than at the 30 s default.
func TestAblationMRAIPacesExploration(t *testing.T) {
	paced := runAblation(t, Scenario{Graph: smallMesh(t), ISP: 0, Config: dampingCfg(), Pulses: 1})
	cfg := dampingCfg()
	cfg.MRAI = 0
	unpaced := runAblation(t, Scenario{Graph: smallMesh(t), ISP: 0, Config: cfg, Pulses: 1})
	if unpaced.MessageCount <= paced.MessageCount ||
		unpaced.MaxDamped <= paced.MaxDamped ||
		unpaced.ConvergenceTime <= paced.ConvergenceTime {
		t.Errorf("MRAI 0: %d msgs / %d damped / %v, want each above MRAI %v's %d / %d / %v",
			unpaced.MessageCount, unpaced.MaxDamped, unpaced.ConvergenceTime,
			dampingCfg().MRAI, paced.MessageCount, paced.MaxDamped, paced.ConvergenceTime)
	}
}

// TestAblationJuniperSuppressesOrigin: Juniper charges announcements as well
// as withdrawals, so two pulses suppress the origin link at the ispAS and
// convergence waits for its reuse; Cisco's penalty stays below the cutoff.
func TestAblationJuniperSuppressesOrigin(t *testing.T) {
	cisco := runAblation(t, Scenario{Graph: smallMesh(t), ISP: 0, Config: dampingCfg(), Pulses: 2})
	cfg := dampingCfg()
	juniper := damping.Juniper()
	cfg.Damping = &juniper
	jun := runAblation(t, Scenario{Graph: smallMesh(t), ISP: 0, Config: cfg, Pulses: 2})
	if cisco.OriginSuppressed || !jun.OriginSuppressed {
		t.Errorf("origin suppressed: Cisco %v, Juniper %v; want false, true", cisco.OriginSuppressed, jun.OriginSuppressed)
	}
	if jun.ConvergenceTime <= cisco.ConvergenceTime {
		t.Errorf("Juniper converges in %v, want later than Cisco's %v", jun.ConvergenceTime, cisco.ConvergenceTime)
	}
}
