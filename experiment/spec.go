package experiment

import (
	"cmp"
	"fmt"
	"time"

	"rfd/damping"
	"rfd/topology"
)

// Spec describes a run by names and sizes, the form it is asked for in, and is
// rfdd's sweep request body: small, self-describing and reproducible, which
// is what the content-addressed run cache keys on. A zero size, seed or
// interval takes the value of the Options it is built with.
type Spec struct {
	// Topology is a topology.Shape family: "mesh" (default), "internet", ….
	Topology string `json:"topology"`
	// Rows/Cols size the mesh; Nodes sizes every other family but tiered.
	Rows  int `json:"rows"`
	Cols  int `json:"cols"`
	Nodes int `json:"nodes"`
	// Damping is a damping.ParsePreset name ("none" by default); RCN adds
	// root-cause notification on top.
	Damping       string  `json:"damping"`
	RCN           bool    `json:"rcn"`
	Seed          uint64  `json:"seed"`
	FlapIntervalS float64 `json:"flap_interval_s"`
	// Pulses lists the pulse counts to run (0..Options.MaxPulses when empty).
	Pulses []int `json:"pulses"`
}

// Bounds on what one Spec may cost. maxRouters caps the simulated topology:
// {"rows":100000,"cols":100000} describes a 10^10-router mesh whose
// construction would exhaust memory before any run started (a daemon's
// admission control bounds how many requests run, not how big one is), so
// oversized shapes are refused before any allocation. maxLinks does the same
// for the dense families, whose cost is quadratic in a node count that passes
// maxRouters ({"topology":"fullmesh","nodes":65536} is 2·10^9 links); every
// sparse family fits it at the router limit. maxFlapIntervalS caps the flap
// interval far above every damping hold-down while staying far below the
// float64 values whose nanosecond conversion overflows time.Duration silently
// (anything past ~9.2e9 s wraps negative).
const (
	maxRouters       = 1 << 16        // 65536 routers
	maxLinks         = 2 * maxRouters // a 65536-router torus; 512 fully meshed routers
	maxFlapIntervalS = 86400          // one day, vs. a 60 min max hold-down
	maxPulseCounts   = 64
)

func (s Spec) shape() topology.Shape {
	return topology.Shape{Family: s.Topology, Rows: s.Rows, Cols: s.Cols, Nodes: s.Nodes, Seed: s.Seed}
}

// Validate refuses a spec whose run would cost more than the bounds allow, or
// that asks for a negative pulse count, with an error that names the field. Every size field is bounded: like a
// negative size, an absurd one is a caller's bug whether or not the family
// reads it. What the shape and the damping name refuse is Scenario's to say.
func (s Spec) Validate() error {
	switch {
	case s.Rows > maxRouters:
		return fmt.Errorf("rows %d exceeds the %d-router limit", s.Rows, maxRouters)
	case s.Cols > maxRouters:
		return fmt.Errorf("cols %d exceeds the %d-router limit", s.Cols, maxRouters)
	case s.Nodes > maxRouters:
		return fmt.Errorf("nodes %d exceeds the %d-router limit", s.Nodes, maxRouters)
	case s.shape().Routers() > maxRouters:
		return fmt.Errorf("rows x cols %dx%d exceeds the %d-router limit", s.Rows, s.Cols, maxRouters)
	}
	if l := s.shape().Links(); l > maxLinks {
		return fmt.Errorf("nodes %d: topology of up to %d links exceeds the %d-link limit", s.Nodes, l, maxLinks)
	}
	// NaN/Inf cannot arrive through encoding/json, but the bound must not
	// depend on the transport, so the test is written for NaN to fail it. A
	// large-but-finite value would overflow the nanosecond conversion into a
	// negative Duration (a baffling "negative flap interval" internal error)
	// or, if merely huge, run a silently absurd workload; a negative one is a
	// caller's bug, so say so rather than ignore it.
	if f := s.FlapIntervalS; !(f >= 0 && f <= maxFlapIntervalS) {
		return fmt.Errorf("flap_interval_s %v outside [0, %d] s", f, maxFlapIntervalS)
	}
	if len(s.Pulses) > maxPulseCounts {
		return fmt.Errorf("pulses: too many pulse counts (%d, max %d)", len(s.Pulses), maxPulseCounts)
	}
	for _, n := range s.Pulses {
		if n < 0 {
			return fmt.Errorf("pulses: negative pulse count %d", n)
		}
	}
	return nil
}

// Scenario fills the spec's zero fields from o, validates it and builds its
// base scenario, returned with the pulse counts to run. graph supplies the
// topology — Shape.Generate, or a server's memo (runs clone the base graph, so
// one graph serves any number of scenarios) — and is called at most once, with
// the canonical shape, after everything else has validated.
func (s Spec) Scenario(o Options, graph func(topology.Shape) (*topology.Graph, error)) (sc Scenario, pulses []int, err error) {
	s.Rows = cmp.Or(s.Rows, o.MeshRows)
	s.Cols = cmp.Or(s.Cols, o.MeshCols)
	s.Nodes = cmp.Or(s.Nodes, o.InternetNodes)
	s.Seed = cmp.Or(s.Seed, o.Seed)
	if err = s.Validate(); err != nil {
		return sc, nil, err
	}
	o.Seed = s.Seed
	o.FlapInterval = cmp.Or(time.Duration(s.FlapIntervalS*float64(time.Second)), o.FlapInterval)
	if pulses = s.Pulses; len(pulses) == 0 {
		pulses = PulseRange(0, o.MaxPulses)
	}
	cfg := o.baseConfig()
	cfg.EnableRCN = s.RCN
	if cfg.Damping, err = damping.ParsePreset(s.Damping); err != nil {
		return sc, nil, err
	}
	if err = cfg.Validate(); err != nil {
		return sc, nil, err
	}
	sc, err = o.scenarioFrom(s.shape(), cfg, graph)
	return sc, pulses, err
}
