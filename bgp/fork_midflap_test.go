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
	"rfd/internal/xrand"
	"rfd/sim"
	"rfd/topology"
	"rfd/trace"
)

// Mid-flap fork equivalence. snapshot_test.go forks a drained network; a pulse
// sweep forks one in the middle of a flap episode — right after a
// re-announcement, with the previous pulses' MRAI and reuse timers pending,
// updates in flight, RIB-IN entries suppressed and, on the sharded engine, the
// announcement itself parked in an outbox. These tests pin that such a fork,
// driven with the stimuli the original goes on to receive, replays the
// original's events byte for byte.

const (
	midFlapPulses   = 4
	midFlapInterval = 60 * time.Second
	midFlapPrefix   = bgp.Prefix("origin/8")
)

// flapEngine is what the flap script needs from either engine.
type flapEngine struct {
	router   func(bgp.RouterID) *bgp.Router
	now      func() time.Duration
	runUntil func(time.Duration) error
	run      func() error
}

func seqFlapEngine(k *sim.Kernel, n *bgp.Network) flapEngine {
	return flapEngine{router: n.Router, now: k.Now, runUntil: k.RunUntil, run: k.Run}
}

func shardFlapEngine(sn *bgp.ShardedNetwork) flapEngine {
	return flapEngine{router: sn.Router, now: sn.Now, runUntil: sn.Group().RunUntil, run: sn.Group().Run}
}

// flapTo drives a converged engine to the instant right after the p-th
// re-announcement.
func flapTo(t testing.TB, e flapEngine, origin bgp.RouterID, p int) {
	t.Helper()
	for q := 1; q <= p; q++ {
		if q > 1 {
			if err := e.runUntil(e.now() + midFlapInterval); err != nil {
				t.Fatal(err)
			}
		}
		e.router(origin).StopOriginating(midFlapPrefix)
		if err := e.runUntil(e.now() + midFlapInterval); err != nil {
			t.Fatal(err)
		}
		e.router(origin).Originate(midFlapPrefix)
	}
}

// flapOn drives an engine standing right after the p-th re-announcement
// through the remaining pulses and drains it.
func flapOn(t testing.TB, e flapEngine, origin bgp.RouterID, p int) {
	t.Helper()
	for q := p + 1; q <= midFlapPulses; q++ {
		if err := e.runUntil(e.now() + midFlapInterval); err != nil {
			t.Fatal(err)
		}
		e.router(origin).StopOriginating(midFlapPrefix)
		if err := e.runUntil(e.now() + midFlapInterval); err != nil {
			t.Fatal(err)
		}
		e.router(origin).Originate(midFlapPrefix)
	}
	if err := e.run(); err != nil {
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
// unimpaired leg. It draws per directed link, so the sharded engine consumes
// it exactly as the sequential one does.
func (l midFlapLeg) impairment() *linkStreams {
	if !l.impair {
		return nil
	}
	return &linkStreams{seed: 23, loss: 0.03, jitter: 4 * time.Millisecond, streams: map[[2]bgp.RouterID]*xrand.Rand{}}
}

// linkStreams loses and delays messages from one stream per directed link,
// derived from (seed, from, to) on first use. Every directed link is sent on
// from one shard, in FIFO order, so both engines consume each stream alike;
// faults.Impairments draws from one stream in the sequential engine's send
// order instead. loss and jitter must both be positive.
type linkStreams struct {
	seed    uint64
	loss    float64
	jitter  time.Duration
	streams map[[2]bgp.RouterID]*xrand.Rand
}

func (l *linkStreams) Impair(_ time.Duration, from, to bgp.RouterID) (bool, time.Duration) {
	k := [2]bgp.RouterID{from, to}
	r := l.streams[k]
	if r == nil {
		r = xrand.New(l.seed ^ uint64(uint32(from))<<32 ^ uint64(uint32(to))*0x9E3779B97F4A7C15).Split()
		l.streams[k] = r
	}
	if r.Float64() < l.loss {
		return true, 0
	}
	return false, time.Duration(r.Uint64n(uint64(l.jitter)))
}

func (l *linkStreams) ForkImpairment() bgp.LinkImpairment {
	c := &linkStreams{seed: l.seed, loss: l.loss, jitter: l.jitter, streams: make(map[[2]bgp.RouterID]*xrand.Rand, len(l.streams))}
	for k, r := range l.streams {
		c.streams[k] = r.Clone()
	}
	return c
}

// convergedSeq builds the leg's sequential network on g, converged on origin's
// prefix, damping reset and the impairment and fault plan installed — a flap
// episode's epoch.
func convergedSeq(t testing.TB, g *topology.Graph, l midFlapLeg, origin bgp.RouterID) (*sim.Kernel, *bgp.Network) {
	t.Helper()
	cfg := l.config()
	k := sim.NewKernel(sim.WithSeed(cfg.Seed))
	n, err := bgp.NewNetwork(k, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Router(origin).Originate(midFlapPrefix)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	n.ResetDamping()
	n.ResetCounters()
	if imp := l.impairment(); imp != nil {
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
				flapTo(t, seqFlapEngine(k, n), origin, forkAt)

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
				flapOn(t, seqFlapEngine(k, n), origin, forkAt)
				fmt.Fprintf(&orig, "end %d executed %d delivered %d dropped %d\n", int64(k.Now()), k.Executed(), n.Delivered(), n.Dropped())

				var forked bytes.Buffer
				kernelTrace(fk, &forked)
				flapOn(t, seqFlapEngine(fk, fn), origin, forkAt)
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

// crossShardOrigin returns a router with a neighbour on another shard, so its
// announcements park in an outbox until the next barrier.
func crossShardOrigin(t testing.TB, g *topology.Graph, assign []int32) bgp.RouterID {
	t.Helper()
	for v := 0; v < g.NumNodes(); v++ {
		for _, w := range g.Neighbors(topology.NodeID(v)) {
			if assign[v] != assign[w] {
				return bgp.RouterID(v)
			}
		}
	}
	t.Fatal("partition has no cut edge")
	return 0
}

// observeShards installs a fresh trace log on every shard network.
func observeShards(sn *bgp.ShardedNetwork) []*trace.Log {
	logs := make([]*trace.Log, sn.NumShards())
	for s := range logs {
		logs[s] = trace.NewLog(0)
		sn.Shard(s).SetHooks(bgp.TraceHooks(logs[s]))
	}
	return logs
}

// TestShardedForkMidFlapMatchesSequential is the same fork on the sharded
// engine at K = 2 and 4, taken while the re-announcement still waits in an
// outbox. The original's trace, and the original's trace up to the fork
// instant followed by the fork's, must both equal the sequential engine's
// canonical trace of the whole episode.
func TestShardedForkMidFlapMatchesSequential(t *testing.T) {
	g, err := topology.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, leg := range midFlapLegs {
		for _, shards := range []int{2, 4} {
			assign, err := topology.Partition(g, shards)
			if err != nil {
				t.Fatal(err)
			}
			origin := crossShardOrigin(t, g, assign)

			k, n := convergedSeq(t, g, leg, origin)
			seqLog := trace.NewLog(0)
			n.SetHooks(bgp.TraceHooks(seqLog))
			flapTo(t, seqFlapEngine(k, n), origin, midFlapPulses)
			flapOn(t, seqFlapEngine(k, n), origin, midFlapPulses)
			want := canonicalBytes(t, trace.Merge(seqLog), n.Delivered(), n.Dropped())

			for _, forkAt := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/shards=%d/pulse=%d", leg.name, shards, forkAt), func(t *testing.T) {
					sn, err := bgp.NewShardedNetwork(g, leg.config(), assign)
					if err != nil {
						t.Fatal(err)
					}
					defer sn.Close()
					sn.Router(origin).Originate(midFlapPrefix)
					if err := sn.Group().Run(); err != nil {
						t.Fatal(err)
					}
					sn.Align()
					sn.ResetDamping()
					sn.ResetCounters()
					imp := leg.impairment()
					for s := 0; s < sn.NumShards(); s++ {
						if imp != nil {
							sn.Shard(s).SetImpairment(imp.ForkImpairment())
						}
						leg.applyPlan(t, sn.Shard(s))
					}
					logs := observeShards(sn)
					flapTo(t, shardFlapEngine(sn), origin, forkAt)

					parked := sn.PendingDeliveries()
					for s := 0; s < sn.NumShards(); s++ {
						parked -= sn.Shard(s).PendingDeliveries()
					}
					if parked == 0 {
						t.Fatal("no cross-shard message parked in an outbox at the fork instant")
					}
					fork, err := sn.Fork()
					if err != nil {
						t.Fatal(err)
					}
					defer fork.Close()
					if fork.PendingDeliveries() != sn.PendingDeliveries() {
						t.Fatalf("fork carries %d pending deliveries, original %d", fork.PendingDeliveries(), sn.PendingDeliveries())
					}
					// Hooks do not cross a fork: the fork's trace is the
					// original's up to here, then its own.
					prefix := make([]*trace.Log, len(logs))
					for s, log := range logs {
						prefix[s] = trace.Merge(log)
					}
					forkLogs := observeShards(fork)

					flapOn(t, shardFlapEngine(sn), origin, forkAt)
					if got := canonicalBytes(t, trace.Merge(logs...), sn.Delivered(), sn.Dropped()); !bytes.Equal(want, got) {
						t.Fatalf("forked-from original differs from sequential: %s", diffPoint(want, got))
					}
					flapOn(t, shardFlapEngine(fork), origin, forkAt)
					if err := fork.CheckConsistency(); err != nil && !leg.impair {
						t.Fatalf("fork inconsistent after the episode: %v", err)
					}
					if got := canonicalBytes(t, trace.Merge(append(prefix, forkLogs...)...), fork.Delivered(), fork.Dropped()); !bytes.Equal(want, got) {
						t.Fatalf("mid-flap sharded fork differs from sequential: %s", diffPoint(want, got))
					}
				})
			}
		}
	}
}
