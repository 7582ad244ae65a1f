package experiment

import (
	"context"
	"testing"
)

// TestCheckpointPoolFailedWarmUpEvictsNothing: the pool evicts only when an
// entry resolves, so a warm-up that fails — validation here, or a cancelled
// context, as when an rfdd request's deadline cuts its warm-up short —
// leaves a full pool's checkpoint in place, and the next request for it is a
// hit that converges nothing.
func TestCheckpointPoolFailedWarmUpEvictsNothing(t *testing.T) {
	ctx := context.Background()
	pool := NewCheckpointPool(1)
	a := poolScenario(t, 1)
	cp, err := pool.Get(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	invalid := poolScenario(t, 2)
	invalid.Shards = -1 // fingerprints fine, fails validation at warm-up
	if _, err := pool.Get(ctx, invalid); err == nil {
		t.Fatal("invalid scenario converged")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := pool.Get(cancelled, poolScenario(t, 3)); err == nil {
		t.Fatal("a cancelled warm-up converged")
	}
	if _, _, evictions := pool.Stats(); evictions != 0 || pool.Len() != 1 {
		t.Fatalf("after two failed warm-ups: %d evictions, %d entries; want 0 / 1", evictions, pool.Len())
	}
	again, err := pool.Get(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses, _ := pool.Stats(); again != cp || hits != 1 || misses != 3 {
		t.Fatalf("A again: same checkpoint %t, hits/misses %d/%d; want true, 1/3", again == cp, hits, misses)
	}
}
