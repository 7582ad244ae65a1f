package experiment

import "fmt"

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
	return nil
}
