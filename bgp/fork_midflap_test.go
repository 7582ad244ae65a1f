package bgp_test

import (
	"bytes"
	"fmt"
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

// Mid-flap fork equivalence. snapshot_test.go forks a drained network; a pulse
// sweep forks one in the middle of a flap episode — right after a
// re-announcement, with the previous pulses' MRAI and reuse timers pending,
// updates in flight and RIB-IN entries suppressed. This test pins that such a
// fork, driven with the stimuli the original goes on to receive, replays the
// original's events byte for byte.

const (
	midFlapPulses   = 4
	midFlapInterval = 60 * time.Second
	midFlapPrefix   = bgp.Prefix("origin/8")
)

// flapTo drives a converged network to the instant right after the p-th
// re-announcement.
func flapTo(t testing.TB, k *sim.Kernel, n *bgp.Network, origin bgp.RouterID, p int) {
	t.Helper()
	for q := 1; q <= p; q++ {
		if q > 1 {
			if err := k.RunUntil(k.Now() + midFlapInterval); err != nil {
				t.Fatal(err)
			}
		}
		n.Router(origin).StopOriginating(midFlapPrefix)
		if err := k.RunUntil(k.Now() + midFlapInterval); err != nil {
			t.Fatal(err)
		}
		n.Router(origin).Originate(midFlapPrefix)
	}
}

// flapOn drives a network standing right after the p-th re-announcement
// through the remaining pulses and drains it.
func flapOn(t testing.TB, k *sim.Kernel, n *bgp.Network, origin bgp.RouterID, p int) {
	t.Helper()
	for q := p + 1; q <= midFlapPulses; q++ {
		if err := k.RunUntil(k.Now() + midFlapInterval); err != nil {
			t.Fatal(err)
		}
		n.Router(origin).StopOriginating(midFlapPrefix)
		if err := k.RunUntil(k.Now() + midFlapInterval); err != nil {
			t.Fatal(err)
		}
		n.Router(origin).Originate(midFlapPrefix)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// midFlapLeg is one configuration the fork must hold under.
type midFlapLeg struct {
	name   string
	cfg    func(*bgp.Config)
	impair bool
	faults bool
}

var midFlapLegs = []midFlapLeg{
	{name: "exact", cfg: func(*bgp.Config) {}},
	{name: "rcn", cfg: func(c *bgp.Config) { c.EnableRCN = true }},
	{name: "impaired", cfg: func(*bgp.Config) {}, impair: true},
	{name: "fault-plan", cfg: func(*bgp.Config) {}, faults: true},
}

// pendingFaults names the plan leg's faults that are still pending at both
// fork instants, as the kernel trace spells them.
var pendingFaults = []string{" faults.up\n", " faults.restart\n", " faults.reset\n"}

// applyPlan applies the leg's fault plan, if it has one, to n with n's current
// instant as the epoch. The pulse-1 and pulse-3 fork instants are 60 s and
// 300 s after it: the flap's restore, the crash's restart and the reset are
// pending at both, the flap's failure and the crash itself at the first only.
func (l midFlapLeg) applyPlan(t testing.TB, n *bgp.Network) {
	t.Helper()
	if !l.faults {
		return
	}
	plan := faults.NewPlan(
		faults.FlapLink(90*time.Second, 5, 6, 240*time.Second),
		faults.CrashRouter(200*time.Second, 3, 150*time.Second),
		faults.ResetSession(310*time.Second, 10, 14),
	)
	if err := plan.Apply(n, n.Kernel().Now(), nil); err != nil {
		t.Fatal(err)
	}
}

func (l midFlapLeg) config() bgp.Config {
	cfg := bgp.DefaultConfig()
	params := damping.Cisco()
	cfg.Damping = &params
	cfg.Seed = 5
	l.cfg(&cfg)
	return cfg
}

// impairment returns the leg's seeded loss-and-jitter model, nil for an
// unimpaired leg.
func (l midFlapLeg) impairment(t testing.TB) *faults.Impairments {
	t.Helper()
	if !l.impair {
		return nil
	}
	im := faults.NewImpairments(23)
	if err := im.SetDefault(faults.Profile{Loss: 0.03, MaxJitter: 4 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	return im
}

// convergedSeq builds the leg's sequential network on g, converged on origin's
// prefix, damping reset and the impairment and fault plan installed — a flap
// episode's epoch.
func convergedSeq(t testing.TB, g *topology.Graph, l midFlapLeg, origin bgp.RouterID) (*sim.Kernel, *bgp.Network) {
	t.Helper()
	k := sim.NewKernel()
	n, err := bgp.NewNetwork(k, g, l.config())
	if err != nil {
		t.Fatal(err)
	}
	n.Router(origin).Originate(midFlapPrefix)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	n.ResetDamping()
	n.ResetCounters()
	if imp := l.impairment(t); imp != nil {
		n.SetImpairment(imp)
	}
	l.applyPlan(t, n)
	return k, n
}

// kernelTrace records every event k fires into buf.
func kernelTrace(k *sim.Kernel, buf *bytes.Buffer) {
	k.SetTrace(func(at time.Duration, name string) {
		buf.WriteString(strconv.FormatInt(int64(at), 10))
		buf.WriteByte(' ')
		buf.WriteString(name)
		buf.WriteByte('\n')
	})
}

// TestForkMidFlapReplaysIdenticalTrace forks the sequential engine between the
// re-announcement of pulse 1 (and of pulse 3) and the simulation that follows
// it, then drives original and fork through the rest of the episode: the
// kernel traces from the fork instant on, and the end-state counters, must be
// byte-identical.
func TestForkMidFlapReplaysIdenticalTrace(t *testing.T) {
	g, err := topology.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	const origin = bgp.RouterID(9)
	for _, leg := range midFlapLegs {
		for _, forkAt := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/pulse=%d", leg.name, forkAt), func(t *testing.T) {
				k, n := convergedSeq(t, g, leg, origin)
				var orig bytes.Buffer
				kernelTrace(k, &orig)
				flapTo(t, k, n, origin, forkAt)

				fk, fn, err := n.Fork()
				if err != nil {
					t.Fatal(err)
				}
				// The fork instant must be the hard case it is meant to be.
				if n.PendingDeliveries() == 0 {
					t.Fatal("no update in flight at the fork instant")
				}
				if k.Pending() <= n.PendingDeliveries() {
					t.Fatalf("no timer pending at the fork instant (%d events, %d of them deliveries)", k.Pending(), n.PendingDeliveries())
				}
				if forkAt == 3 && n.DampedLinkCount() == 0 {
					t.Fatal("no suppressed RIB-IN entry at the fork instant")
				}
				if fk.Now() != k.Now() || fk.Pending() != k.Pending() || fn.PendingDeliveries() != n.PendingDeliveries() {
					t.Fatalf("fork stands at now=%v pending=%d in-flight=%d, original at now=%v pending=%d in-flight=%d",
						fk.Now(), fk.Pending(), fn.PendingDeliveries(), k.Now(), k.Pending(), n.PendingDeliveries())
				}

				mark := orig.Len()
				flapOn(t, k, n, origin, forkAt)
				fmt.Fprintf(&orig, "end %d executed %d delivered %d dropped %d\n", int64(k.Now()), k.Executed(), n.Delivered(), n.Dropped())

				var forked bytes.Buffer
				kernelTrace(fk, &forked)
				flapOn(t, fk, fn, origin, forkAt)
				fmt.Fprintf(&forked, "end %d executed %d delivered %d dropped %d\n", int64(fk.Now()), fk.Executed(), fn.Delivered(), fn.Dropped())

				if leg.impair && n.Dropped() == 0 {
					t.Fatal("the impaired leg dropped nothing")
				}
				for _, name := range pendingFaults {
					if leg.faults && !bytes.Contains(forked.Bytes(), []byte(name)) {
						t.Fatalf("no%s fired on the fork", strings.TrimSuffix(name, "\n"))
					}
				}
				if want := orig.Bytes()[mark:]; !bytes.Equal(want, forked.Bytes()) {
					t.Fatalf("mid-flap fork diverges from the original: %s", diffPoint(want, forked.Bytes()))
				}
			})
		}
	}
}
