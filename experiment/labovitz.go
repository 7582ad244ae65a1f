package experiment

import (
	"bufio"
	"fmt"
	"io"
	"time"

	"rfd/bgp"
	"rfd/check"
	"rfd/sim"
)

// The paper's analysis builds on Labovitz et al.'s delayed-convergence
// taxonomy (SIGCOMM 2000), which it cites for path exploration and for
// ordinary BGP convergence times ("usually between seconds and a few
// minutes"). This file reproduces that baseline on the simulator: the four
// canonical routing events measured on a dual-homed origin.
//
//	Tup    — a previously unreachable destination is announced
//	Tdown  — the destination is withdrawn entirely
//	Tlong  — the primary link fails; routers fail over to a longer path
//	Tshort — the primary link recovers; routers return to the shorter path
//
// Labovitz's headline result — Tdown and Tlong take far longer than Tup and
// Tshort because bad news triggers path exploration while good news replaces
// routes directly — is asserted by the tests and written as ext_events.csv
// by rfdfig -fig events.

// EventMeasurement is the outcome of one canonical routing event.
type EventMeasurement struct {
	// Event is "Tup", "Tdown", "Tlong" or "Tshort".
	Event string
	// Convergence is the time from the event to the last resulting update.
	Convergence time.Duration
	// Messages is the number of updates the event triggered.
	Messages int
}

// ConvergenceEvents measures the four events on the mesh with a dual-homed
// origin: a direct (primary) link to the ispAS and a two-hop (backup) path
// via a relay attached to the node farthest from the ispAS. Damping is off —
// this is the plain-BGP baseline the paper compares against. With o.Check the
// four events run under the runtime invariant checker, as a scenario does.
func ConvergenceEvents(o Options) ([]EventMeasurement, error) {
	mesh, err := o.meshScenario(o.baseConfig())
	if err != nil {
		return nil, err
	}
	g, isp, cfg := mesh.Graph, mesh.ISP, mesh.Config
	// Backup attachment point: the node farthest from the ispAS, so backup
	// paths are strictly longer nearly everywhere.
	far := isp
	maxDist := -1
	for id, d := range g.BFS(isp) {
		if d > maxDist || (d == maxDist && id < far) {
			far, maxDist = id, d
		}
	}
	origin := g.AddNode()
	relay := g.AddNode()
	if err := g.AddEdge(origin, isp); err != nil {
		return nil, err
	}
	if err := g.AddEdge(origin, relay); err != nil {
		return nil, err
	}
	if err := g.AddEdge(relay, far); err != nil {
		return nil, err
	}

	// A simulation of the build, though neither sweep nor run: it too runs
	// under a token of the options' budget.
	b := o.tokens(1)
	b <- struct{}{}
	defer func() { <-b }()
	k := sim.NewKernel()
	n, err := bgp.NewNetwork(k, g, cfg)
	if err != nil {
		return nil, err
	}
	var chk *check.Checker
	if o.Check {
		if chk, err = check.Attach(n, check.Options{ISP: isp, Origin: origin, Prefix: FlapPrefix}); err != nil {
			return nil, fmt.Errorf("experiment: invariant checker: %w", err)
		}
	}

	ctx := o.ctx()
	var out []EventMeasurement
	measure := func(event string, act func() error) error {
		// The counters run on across events: the checker holds the engine's
		// count to the updates its hooks saw since it attached.
		before, start := n.Delivered(), k.Now()
		if err := act(); err != nil {
			return err
		}
		if err := k.RunContext(ctx); err != nil {
			return wrapInterrupt(ctx, event, err)
		}
		msgs := n.Delivered() - before
		conv := time.Duration(0)
		if msgs > 0 {
			conv = n.LastDelivery() - start
		}
		out = append(out, EventMeasurement{
			Event:       event,
			Convergence: conv,
			Messages:    int(msgs),
		})
		return n.CheckConsistency()
	}

	// Tup: announce the (so far unknown) destination.
	if err := measure("Tup", func() error {
		n.Router(origin).Originate(FlapPrefix)
		return nil
	}); err != nil {
		return nil, err
	}
	// Tlong: fail the primary link; traffic shifts to the longer backup.
	if err := measure("Tlong", func() error {
		return n.SetLinkState(origin, isp, false)
	}); err != nil {
		return nil, err
	}
	// Tshort: recover the primary; traffic returns to the shorter path.
	if err := measure("Tshort", func() error {
		return n.SetLinkState(origin, isp, true)
	}); err != nil {
		return nil, err
	}
	// Tdown: withdraw the destination entirely.
	if err := measure("Tdown", func() error {
		n.Router(origin).StopOriginating(FlapPrefix)
		return nil
	}); err != nil {
		return nil, err
	}
	if chk != nil {
		if err := chk.Finish().Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// WriteEventsCSV emits the Labovitz baseline.
func WriteEventsCSV(w io.Writer, rows []EventMeasurement) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "event,convergence_s,messages")
	for _, r := range rows {
		fmt.Fprintf(bw, "%s,%s,%d\n", r.Event, csvSeconds(r.Convergence), r.Messages)
	}
	return bw.Flush()
}
