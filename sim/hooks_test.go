package sim_test

import (
	"testing"
	"time"

	"rfd/sim"
)

// nop is a Handler whose events do nothing.
type nop struct{}

func (nop) HandleEvent(uint64) {}

func TestNextEventTime(t *testing.T) {
	k := sim.NewKernel()
	if _, ok := k.NextEventTime(); ok {
		t.Fatal("empty kernel reports a next event")
	}
	k.AtHandler(5*time.Second, "b", nop{}, 0)
	k.AtHandler(2*time.Second, "a", nop{}, 0)
	if at, ok := k.NextEventTime(); !ok || at != 2*time.Second {
		t.Fatalf("NextEventTime = %v, %v; want 2s, true", at, ok)
	}
	k.Step()
	if at, ok := k.NextEventTime(); !ok || at != 5*time.Second {
		t.Fatalf("NextEventTime after step = %v, %v; want 5s, true", at, ok)
	}
	k.Step()
	if _, ok := k.NextEventTime(); ok {
		t.Fatal("drained kernel reports a next event")
	}
}

func TestTraceGetter(t *testing.T) {
	k := sim.NewKernel()
	if k.Trace() != nil {
		t.Fatal("fresh kernel has a trace observer")
	}
	calls := 0
	fn := func(time.Duration, string) { calls++ }
	k.SetTrace(fn)
	if k.Trace() == nil {
		t.Fatal("Trace does not return the installed observer")
	}
	// The returned observer is the live one: calling it and firing an event
	// hit the same counter.
	k.Trace()(0, "manual")
	k.AtHandler(time.Second, "e", nop{}, 0)
	k.Run()
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
}
