package experiment

import (
	"fmt"

	"rfd/bgp"
)

// validateSharded checks Shards against the features that require the
// sequential engine. A Shards<=1 scenario is unconstrained.
func (s Scenario) validateSharded() error {
	if s.Shards < 0 {
		return fmt.Errorf("experiment: negative shard count %d", s.Shards)
	}
	if s.Shards <= 1 {
		return nil
	}
	if s.Watchdog {
		return fmt.Errorf("experiment: the convergence watchdog drives a single kernel; it cannot supervise a sharded run (Shards=%d)", s.Shards)
	}
	if s.Check {
		return fmt.Errorf("experiment: the invariant checker attaches to a single network; it cannot observe a sharded run (Shards=%d)", s.Shards)
	}
	if s.Impair != nil && !s.Impair.LinkStreams() {
		return fmt.Errorf("experiment: sharded runs need per-link impairment streams (faults.Impairments.UseLinkStreams); the global stream's consumption order is engine-dependent")
	}
	if _, err := bgp.Lookahead(s.Config); err != nil {
		return fmt.Errorf("experiment: %w", err)
	}
	return nil
}
