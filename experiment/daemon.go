package experiment

import (
	"fmt"

	"rfd/damping"
	"rfd/topology"
)

// GraphSource supplies a scenario's base topology. It is handed the generator
// for the shape being asked for and returns the graph to run on: build()
// itself, or an equal graph the caller kept from an earlier call (runs clone
// the base graph before attaching the origin, so one graph can serve any
// number of scenarios, concurrently).
type GraphSource func(build func() (*topology.Graph, error)) (*topology.Graph, error)

// generate is the GraphSource that keeps nothing.
func generate(build func() (*topology.Graph, error)) (*topology.Graph, error) { return build() }

// DaemonScenario builds a base scenario from shape parameters — the form a
// service request arrives in (cmd/rfdd), where the topology is specified by
// family and size rather than by adjacency so every request is small,
// self-describing and reproducible (which is what the content-addressed run
// cache keys on). topo is "mesh" (default) or "internet"; damp is "none"
// (default), "cisco" or "juniper"; rcn layers root-cause notification on a
// damped configuration. Every call generates its topology afresh.
func DaemonScenario(o Options, topo, damp string, rcn bool) (Scenario, error) {
	return DaemonScenarioOn(o, topo, damp, rcn, generate)
}

// DaemonScenarioOn is DaemonScenario with the topology taken from graph, for a
// server that keeps the graphs of the shapes it is asked for repeatedly. graph
// is called at most once, and only after topo, damp and rcn have validated —
// a request that is going to be refused never reaches it. What the generated
// graph depends on is the caller's to know when it keys what it keeps: the
// mesh on (MeshRows, MeshCols) alone, the internet topology on
// (InternetNodes, Seed).
func DaemonScenarioOn(o Options, topo, damp string, rcn bool, graph GraphSource) (Scenario, error) {
	cfg := o.baseConfig()
	switch damp {
	case "", "none":
		if rcn {
			return Scenario{}, fmt.Errorf("experiment: rcn requires damping")
		}
	case "cisco":
		params := damping.Cisco()
		cfg.Damping = &params
	case "juniper":
		params := damping.Juniper()
		cfg.Damping = &params
	default:
		return Scenario{}, fmt.Errorf("experiment: unknown damping %q (want none, cisco or juniper)", damp)
	}
	cfg.EnableRCN = rcn

	switch topo {
	case "", "mesh":
		return o.meshScenarioOn(graph, cfg)
	case "internet":
		return o.internetScenarioOn(graph, cfg, o.InternetNodes, cfg.Policy)
	default:
		return Scenario{}, fmt.Errorf("experiment: unknown topology %q (want mesh or internet)", topo)
	}
}
