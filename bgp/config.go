package bgp

import (
	"fmt"
	"time"

	"rfd/damping"
)

// Policy selects the import-preference / export-filter pair routers apply.
type Policy int

const (
	// ShortestPath prefers shorter AS paths and exports the best route to
	// every peer (modulo loop filtering). This is the paper's default
	// policy for Sections 4–6.
	ShortestPath Policy = iota + 1
	// NoValley implements the customer/peer/provider policy of Section 7:
	// routes learned from customers are preferred over routes learned from
	// peers over routes learned from providers, and a route is exported to a
	// peer or provider only if it was learned from a customer (or originated
	// locally). Requires a relationship-annotated topology.
	NoValley
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case ShortestPath:
		return "shortest-path"
	case NoValley:
		return "no-valley"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy resolves a policy by its command-line name: shortest or
// novalley.
func ParsePolicy(name string) (Policy, error) {
	switch name {
	case "shortest":
		return ShortestPath, nil
	case "novalley":
		return NoValley, nil
	default:
		return 0, fmt.Errorf("bgp: unknown policy %q (want shortest or novalley)", name)
	}
}

// Config assembles the per-network protocol parameters. The zero value is
// not valid; start from DefaultConfig.
type Config struct {
	// Policy selects route preference and export filtering.
	Policy Policy

	// Damping, when non-nil, enables route flap damping with the given
	// parameters at every router. Nil disables damping network-wide.
	Damping *damping.Params

	// DampingSelect, when non-nil, overrides Damping per router: it is
	// called once per router at network construction and returns that
	// router's parameters, or nil to disable damping there. This models the
	// paper's partial-deployment and inconsistent-parameter discussions
	// (RFC 3221 notes both are the deployed reality; Section 6 shows
	// parameter diversity alone causes secondary charging). The function
	// must be pure — it is part of the deterministic run identity.
	DampingSelect func(RouterID) *damping.Params

	// EnableRCN attaches root causes to updates and charges the damping
	// penalty only once per (peer, root cause), per Section 6. It has no
	// effect at routers without damping.
	EnableRCN bool

	// SelectiveDamping enables the "selective route flap damping" baseline
	// of Mao et al. (SIGCOMM 2002), the paper's Section 6 comparator: every
	// announcement carries the sender's route-preference value (here: AS
	// path length, lower is better), and the receiver skips the penalty
	// increment for announcements it judges to be path exploration — ones
	// whose preference is strictly worse than the previously announced one.
	// The paper's point, which the experiments reproduce, is that this
	// heuristic misses some exploration updates and does not address
	// secondary charging. Mutually exclusive with EnableRCN.
	SelectiveDamping bool

	// MRAI is the Minimum Route Advertisement Interval applied per peer to
	// announcements (withdrawals are never delayed, matching the BGP-4
	// default and SSFNet). Each interval is jittered by a uniform factor in
	// [0.75, 1.0). Zero disables rate limiting.
	MRAI time.Duration

	// Seed drives link delays, jitter, and all other randomness.
	Seed uint64
}

// The paper's network model (Section 5.1), which every run shares: each link
// draws one propagation delay in [minLinkDelay, maxLinkDelay) when the network
// is built, and each update a router reacts to adds a processing delay in
// [minProcDelay, maxProcDelay) before the reaction leaves the router.
// experiment's run fingerprint spells these values out: a change here must
// change the fingerprint too, or cached Results go stale.
const (
	minLinkDelay = 10 * time.Millisecond
	maxLinkDelay = 110 * time.Millisecond
	minProcDelay = 1 * time.Millisecond
	maxProcDelay = 10 * time.Millisecond
)

// DefaultConfig returns the configuration used throughout the paper's
// simulations (Section 5.1): shortest-path policy, 30 s MRAI, no damping.
// Experiments switch damping and RCN on per run.
func DefaultConfig() Config {
	return Config{
		Policy: ShortestPath,
		MRAI:   30 * time.Second,
		Seed:   1,
	}
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	switch {
	case c.Policy != ShortestPath && c.Policy != NoValley:
		return fmt.Errorf("bgp: unknown policy %v", c.Policy)
	case c.MRAI < 0:
		return fmt.Errorf("bgp: negative MRAI %v", c.MRAI)
	}
	if c.Damping != nil {
		if err := c.Damping.Validate(); err != nil {
			return fmt.Errorf("bgp: %w", err)
		}
	}
	if c.EnableRCN && c.Damping == nil && c.DampingSelect == nil {
		return fmt.Errorf("bgp: EnableRCN requires damping parameters")
	}
	if c.SelectiveDamping && c.Damping == nil && c.DampingSelect == nil {
		return fmt.Errorf("bgp: SelectiveDamping requires damping parameters")
	}
	if c.EnableRCN && c.SelectiveDamping {
		return fmt.Errorf("bgp: EnableRCN and SelectiveDamping are mutually exclusive")
	}
	return nil
}

// dampingFor resolves the damping parameters for one router (nil disables).
// DampingSelect results are validated at network construction.
func (c Config) dampingFor(id RouterID) *damping.Params {
	if c.DampingSelect != nil {
		return c.DampingSelect(id)
	}
	return c.Damping
}
