package experiment

import (
	"context"
	"testing"
	"time"
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

// TestCheckpointPoolPanickingWarmUpFreesKey: a warm-up that panics still
// resolves its pool entry, so the key is not stranded in flight. The next
// Get of it converges at once instead of waiting out its own deadline, and
// Len counts no entry for it meanwhile.
func TestCheckpointPoolPanickingWarmUpFreesKey(t *testing.T) {
	pool := NewCheckpointPool(4)
	sc := poolScenario(t, 1)
	orig := warmUp
	warmUp = func(context.Context, Scenario) (engine, error) { panic("injected warm-up panic") }
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the injected warm-up panic did not reach the caller")
			}
		}()
		pool.Get(context.Background(), sc)
	}()
	warmUp = orig
	if n := pool.Len(); n != 0 {
		t.Errorf("after a panicking warm-up: Len %d, want 0", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	cp, err := pool.Get(ctx, sc)
	if err != nil || cp == nil {
		t.Fatalf("Get after a panicking warm-up: %v", err)
	}
	if hits, misses, _ := pool.Stats(); hits != 0 || misses != 2 || pool.Len() != 1 {
		t.Fatalf("hits/misses %d/%d, Len %d; want 0/2, 1", hits, misses, pool.Len())
	}
}
