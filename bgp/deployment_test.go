package bgp

import (
	"testing"
	"time"

	"rfd/damping"
	"rfd/sim"
)

func TestConfigValidateNewModes(t *testing.T) {
	params := damping.Cisco()
	cases := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"selective without damping", func(c *Config) { c.SelectiveDamping = true }, false},
		{"selective with damping", func(c *Config) {
			c.Damping = &params
			c.SelectiveDamping = true
		}, true},
		{"rcn and selective together", func(c *Config) {
			c.Damping = &params
			c.SelectiveDamping = true
			c.EnableRCN = true
		}, false},
		{"rcn with select only", func(c *Config) {
			c.DampingSelect = func(RouterID) *damping.Params { return &params }
			c.EnableRCN = true
		}, true},
		{"selective with select only", func(c *Config) {
			c.DampingSelect = func(RouterID) *damping.Params { return &params }
			c.SelectiveDamping = true
		}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			c.mutate(&cfg)
			if err := cfg.Validate(); (err == nil) != c.ok {
				t.Fatalf("Validate = %v, want ok=%t", err, c.ok)
			}
		})
	}
}

func TestNewNetworkValidatesSelectedParams(t *testing.T) {
	bad := damping.Cisco()
	bad.HalfLife = 0
	cfg := DefaultConfig()
	cfg.DampingSelect = func(id RouterID) *damping.Params {
		if id == 1 {
			return &bad
		}
		return nil
	}
	if _, err := NewNetwork(sim.NewKernel(), mustLine(t, 3), cfg); err == nil {
		t.Fatal("invalid per-router params accepted")
	}
}

// TestPartialDeployment verifies routers without damping never suppress
// while damping routers do — the tech-report partial-deployment scenario.
func TestPartialDeployment(t *testing.T) {
	g := mustTorus(t, 4, 4)
	origin, _ := attachOrigin(t, g, 0)
	params := damping.Cisco()
	// Only even routers damp.
	k, n := buildNet(t, g, func(c *Config) {
		c.DampingSelect = func(id RouterID) *damping.Params {
			if id%2 == 0 {
				return &params
			}
			return nil
		}
	})
	suppressedBy := make(map[RouterID]bool)
	n.SetHooks(Hooks{OnSuppress: func(_ time.Duration, router, _ RouterID, _ Prefix, on bool) {
		if on {
			suppressedBy[router] = true
		}
	}})
	converge(t, k, n, origin)
	n.ResetDamping()
	for i := 0; i < 3; i++ {
		pulse(t, k, n, origin)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(suppressedBy) == 0 {
		t.Fatal("no suppression anywhere under partial deployment")
	}
	for router := range suppressedBy {
		if router%2 != 0 {
			t.Fatalf("undamped router %d suppressed a route", router)
		}
	}
}

// TestPartialDeploymentReducesSuppression: fewer damping routers, fewer
// suppressed links at the peak.
func TestPartialDeploymentReducesSuppression(t *testing.T) {
	params := damping.Cisco()
	run := func(frac int) int {
		g := mustTorus(t, 4, 4)
		origin, _ := attachOrigin(t, g, 0)
		k, n := buildNet(t, g, func(c *Config) {
			c.DampingSelect = func(id RouterID) *damping.Params {
				if int(id)%4 < frac {
					return &params
				}
				return nil
			}
		})
		converge(t, k, n, origin)
		n.ResetDamping()
		maxDamped := 0
		n.SetHooks(Hooks{OnSuppress: func(_ time.Duration, _, _ RouterID, _ Prefix, _ bool) {
			if d := n.DampedLinkCount(); d > maxDamped {
				maxDamped = d
			}
		}})
		pulse(t, k, n, origin)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return maxDamped
	}
	quarter := run(1) // 25 % of routers damp
	full := run(4)    // all damp
	if quarter >= full {
		t.Fatalf("partial deployment did not reduce suppression: 25%%=%d, 100%%=%d", quarter, full)
	}
	if quarter == 0 {
		t.Fatal("no suppression at 25% deployment; scenario too weak")
	}
}

// TestHeterogeneousParamsSecondaryCharging reproduces the Section 6
// example: X and Y see the same updates, but Y's more aggressive parameters
// keep Y suppressing after X reuses; X's reuse announcement then re-charges
// Y's penalty and postpones Y's reuse timer.
func TestHeterogeneousParamsSecondaryCharging(t *testing.T) {
	// Chain: origin(3) - isp(0) - X(1) - Y(2). X uses Cisco defaults; Y
	// uses an aggressive variant that also charges re-announcements and
	// holds routes longer.
	g := mustLine(t, 3) // 0 - 1 - 2
	origin, _ := attachOrigin(t, g, 0)
	xParams := damping.Cisco()
	yParams := damping.Cisco()
	yParams.ReannouncementPenalty = 1000
	yParams.CutoffThreshold = 1500

	k, n := buildNet(t, g, func(c *Config) {
		c.DampingSelect = func(id RouterID) *damping.Params {
			switch id {
			case 1:
				return &xParams
			case 2:
				return &yParams
			default:
				return nil // the isp and origin do not damp in this scenario
			}
		}
	})
	converge(t, k, n, origin)
	n.ResetDamping()

	var yPenaltyAtXReuse, yPenaltyAfter float64
	var xReused time.Duration
	n.SetHooks(Hooks{
		OnReuse: func(at time.Duration, router, _ RouterID, _ Prefix, _ bool) {
			if router == 1 && xReused == 0 {
				xReused = at
				yPenaltyAtXReuse = penaltyOf(n.Router(2), 1, testPrefix, at)
			}
		},
		OnPenalty: func(at time.Duration, router, peer RouterID, _ Prefix, p float64) {
			if router == 2 && peer == 1 && xReused > 0 && at > xReused {
				yPenaltyAfter = p
			}
		},
	})
	// Flap hard enough to suppress both X's and Y's entries.
	for i := 0; i < 4; i++ {
		pulse(t, k, n, origin)
	}
	if !isSuppressed(n.Router(1), 0, testPrefix) {
		t.Fatal("setup: X did not suppress")
	}
	if !isSuppressed(n.Router(2), 1, testPrefix) {
		t.Fatal("setup: Y did not suppress")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if xReused == 0 {
		t.Fatal("X never reused")
	}
	if yPenaltyAfter <= yPenaltyAtXReuse {
		t.Fatalf("X's reuse did not re-charge Y: %.0f -> %.0f", yPenaltyAtXReuse, yPenaltyAfter)
	}
}

// TestSelectiveDampingSkipsExplorationCharges: with selective damping, an
// announcement with a longer path than its predecessor does not charge.
func TestSelectiveDampingReducesFalseSuppression(t *testing.T) {
	run := func(selective bool) int {
		g := mustTorus(t, 4, 4)
		origin, _ := attachOrigin(t, g, 0)
		params := damping.Cisco()
		k, n := buildNet(t, g, func(c *Config) {
			c.Damping = &params
			c.SelectiveDamping = selective
		})
		converge(t, k, n, origin)
		n.ResetDamping()
		maxDamped := 0
		n.SetHooks(Hooks{OnSuppress: func(_ time.Duration, _, _ RouterID, _ Prefix, _ bool) {
			if d := n.DampedLinkCount(); d > maxDamped {
				maxDamped = d
			}
		}})
		pulse(t, k, n, origin)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return maxDamped
	}
	classic := run(false)
	selective := run(true)
	if selective >= classic {
		t.Fatalf("selective damping did not reduce false suppression: %d vs %d", selective, classic)
	}
}

// TestSelectiveDampingStillSuppressesOrigin: the heuristic must not break
// damping's core function against a persistently flapping link.
func TestSelectiveDampingStillSuppressesOrigin(t *testing.T) {
	g := mustTorus(t, 4, 4)
	origin, isp := attachOrigin(t, g, 0)
	params := damping.Cisco()
	k, n := buildNet(t, g, func(c *Config) {
		c.Damping = &params
		c.SelectiveDamping = true
	})
	converge(t, k, n, origin)
	n.ResetDamping()
	for i := 0; i < 3; i++ {
		pulse(t, k, n, origin)
	}
	if !isSuppressed(n.Router(isp), origin, testPrefix) {
		t.Fatal("selective damping failed to suppress the flapping origin link")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
