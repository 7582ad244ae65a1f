package experiment

import (
	"fmt"
	"slices"
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
	if s.Check {
		return fmt.Errorf("experiment: the invariant checker attaches to a single network; it cannot observe a sharded run (Shards=%d)", s.Shards)
	}
	if s.Impair != nil {
		return fmt.Errorf("experiment: Impair needs the sequential engine; it cannot impair a sharded run (Shards=%d)", s.Shards)
	}
	if s.Faults != nil {
		return fmt.Errorf("experiment: Faults needs the sequential engine; it cannot apply a fault plan to a sharded run (Shards=%d)", s.Shards)
	}
	if s.Trace != nil {
		return fmt.Errorf("experiment: Trace needs the sequential engine; it cannot trace a sharded run (Shards=%d)", s.Shards)
	}
	return nil
}

// checkpointable refuses a sharded scenario to op, a call of the checkpoint
// API: a Checkpoint parks a sequential engine.
func (s Scenario) checkpointable(op string) error {
	if s.Shards > 1 {
		return fmt.Errorf("experiment: %s needs the sequential engine; a checkpoint cannot park a sharded run (Shards=%d)", op, s.Shards)
	}
	return nil
}

// sweepable refuses a sweep of a sharded base over more than one distinct
// pulse count, whether or not its points are cached.
func (s Scenario) sweepable(pulses []int) error {
	if s.Shards > 1 && slices.ContainsFunc(pulses, func(n int) bool { return n != pulses[0] }) {
		return fmt.Errorf("experiment: Sweep needs the sequential engine for more than one pulse count; a sharded run (Shards=%d) cannot fork, and %v asks for several", s.Shards, pulses)
	}
	return nil
}
