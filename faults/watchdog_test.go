package faults

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"rfd/bgp"
	"rfd/sim"
	"rfd/topology"
)

func TestWatchdogConverges(t *testing.T) {
	k, n := buildNet(t, 3)
	fs := newFuncs(k)
	n.Router(0).Originate(testPrefix)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// A clean origination flap, then a distant no-op event: after the flap
	// settles the watchdog sees a quiescent episode long before the no-op,
	// so a mid-run consistency check fires in addition to the final one.
	epoch := k.Now()
	fs.At(epoch+time.Second, "test.flapdown", func() { n.Router(0).StopOriginating(testPrefix) })
	fs.At(epoch+2*time.Second, "test.flapup", func() { n.Router(0).Originate(testPrefix) })
	fs.At(epoch+time.Hour, "test.noop", func() {})

	rep := Watch(context.Background(), n)
	if rep.Outcome != Converged || rep.Err != nil {
		t.Fatalf("report = %s, want converged", rep)
	}
	if rep.Checks < 2 {
		t.Fatalf("Checks = %d, want at least one mid-run check plus the final one", rep.Checks)
	}
	if rep.QuiescentAt == 0 {
		t.Fatal("QuiescentAt never recorded")
	}
	if rep.Events == 0 {
		t.Fatal("watchdog stepped no events")
	}
	if rep.Recent != nil {
		t.Fatal("converged report carries a diagnosis ring")
	}
}

func TestWatchdogLivelock(t *testing.T) {
	// The livelock budget is the kernel's own: an identical network whose
	// kernel may fire 40 events past its warm-up gives the watch 40.
	const budget = 40
	k, n := buildNet(t, 3)
	n.Router(0).Originate(testPrefix)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k, n = buildNet(t, 3, sim.WithMaxEvents(k.Executed()+budget))
	fs := newFuncs(k)
	n.Router(0).Originate(testPrefix)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// A self-rearming event never lets the queue drain.
	var rearm func()
	rearm = func() { fs.At(k.Now()+time.Second, "test.rearm", rearm) }
	rearm()

	rep := Watch(context.Background(), n)
	if rep.Outcome != Livelock {
		t.Fatalf("report = %s, want livelock", rep)
	}
	if rep.Events != budget {
		t.Fatalf("Events = %d, want exactly the %d events left of the kernel's budget", rep.Events, budget)
	}
	if rep.Err == nil || !strings.Contains(rep.Err.Error(), "budget") {
		t.Fatalf("Err = %v, want budget exhaustion", rep.Err)
	}
	if !errors.Is(rep.Err, sim.ErrEventLimit) {
		t.Fatalf("Err = %v, want to wrap sim.ErrEventLimit", rep.Err)
	}
	if len(rep.Recent) != recent {
		t.Fatalf("Recent has %d entries, want the full ring of %d", len(rep.Recent), recent)
	}
	for _, e := range rep.Recent {
		if e.Name != "test.rearm" {
			t.Fatalf("diagnosis ring holds %q, want the rearming event", e.Name)
		}
	}
	for i := 1; i < len(rep.Recent); i++ {
		if rep.Recent[i].At < rep.Recent[i-1].At {
			t.Fatal("diagnosis ring not oldest-first")
		}
	}
}

func TestWatchdogDiverges(t *testing.T) {
	k, n := buildNet(t, 3)
	fs := newFuncs(k)
	n.Router(0).Originate(testPrefix)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Total loss: every update of the re-origination vanishes, so RIB-OUT
	// and RIB-IN disagree permanently — the watchdog must drain the run and
	// report divergence rather than error out mid-flight.
	imp := NewImpairments(3)
	if err := imp.SetDefault(Profile{Loss: 1}); err != nil {
		t.Fatal(err)
	}
	n.SetImpairment(imp)
	epoch := k.Now()
	fs.At(epoch+time.Second, "test.flapdown", func() { n.Router(0).StopOriginating(testPrefix) })

	rep := Watch(context.Background(), n)
	if rep.Outcome != Diverged {
		t.Fatalf("report = %s, want diverged", rep)
	}
	if rep.Err == nil {
		t.Fatal("diverged report has no error")
	}
	if rep.DivergedAt == 0 {
		t.Fatal("DivergedAt never recorded")
	}
	if len(rep.Recent) == 0 {
		t.Fatal("diverged report has no diagnosis ring")
	}
	if n.Dropped() == 0 {
		t.Fatal("total-loss impairment dropped nothing")
	}
}

func TestWatchdogRestoresTrace(t *testing.T) {
	k, n := buildNet(t, 3)
	fs := newFuncs(k)
	n.Router(0).Originate(testPrefix)
	calls := 0
	k.SetTrace(func(time.Duration, string) { calls++ })
	Watch(context.Background(), n)
	if calls == 0 {
		t.Fatal("watchdog did not chain onto the existing trace observer")
	}
	// The observer installed before Watch must be back afterwards.
	before := calls
	fs.At(k.Now()+time.Second, "test.noop", func() {})
	k.Step()
	if calls != before+1 {
		t.Fatalf("trace observer not restored after Watch (calls %d, want %d)", calls, before+1)
	}
}

// TestWatchdogRestoresAfterEvent: the quiescence check rides the kernel's
// after-event hook, chained onto the observer already there (the invariant
// checker's, in a checked run), and Watch leaves both hooks as it found them.
func TestWatchdogRestoresAfterEvent(t *testing.T) {
	k, n := buildNet(t, 3)
	n.Router(0).Originate(testPrefix)
	Watch(context.Background(), n)
	if k.AfterEvent() != nil || k.Trace() != nil {
		t.Fatal("Watch left its observers installed")
	}
	calls := 0
	k.SetAfterEvent(func(time.Duration, string) { calls++ })
	n.Router(0).StopOriginating(testPrefix)
	rep := Watch(context.Background(), n)
	if rep.Events == 0 || uint64(calls) != rep.Events {
		t.Fatalf("chained after-event observer saw %d of %d events", calls, rep.Events)
	}
}

// rearmNet builds a network whose queue never drains (a self-rearming event),
// so only a budget or an abort can end the watch.
func rearmNet(t *testing.T) (*bgp.Network, func()) {
	t.Helper()
	k, n := buildNet(t, 3)
	fs := newFuncs(k)
	n.Router(0).Originate(testPrefix)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var rearm func()
	rearm = func() { fs.At(k.Now()+time.Millisecond, "test.rearm", rearm) }
	return n, rearm
}

func TestWatchdogAbortsOnCancel(t *testing.T) {
	n, rearm := rearmNet(t)
	rearm()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep := Watch(ctx, n)
	if rep.Outcome != Aborted {
		t.Fatalf("report = %s, want aborted", rep)
	}
	if !errors.Is(rep.Err, context.Canceled) {
		t.Fatalf("Err = %v, want to wrap context.Canceled", rep.Err)
	}
	// The cancel is polled amortized: the watch must stop within one poll
	// interval, not run anywhere near the event budget.
	if rep.Events > sim.StopCheckInterval {
		t.Fatalf("aborted watch stepped %d events, want at most the %d-event poll interval", rep.Events, sim.StopCheckInterval)
	}
}

// TestWatchdogAbortsOnDeadline: a context deadline is the watchdog's
// wall-clock bound. One already past trips the entry poll, before any event
// fires, so the abort is immediate and the ring can be empty.
func TestWatchdogAbortsOnDeadline(t *testing.T) {
	n, rearm := rearmNet(t)
	rearm()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	rep := Watch(ctx, n)
	if rep.Outcome != Aborted {
		t.Fatalf("report = %s, want aborted", rep)
	}
	if !errors.Is(rep.Err, context.DeadlineExceeded) {
		t.Fatalf("Err = %v, want to wrap context.DeadlineExceeded", rep.Err)
	}
	if rep.Events != 0 {
		t.Fatalf("aborted watch stepped %d events past an expired deadline", rep.Events)
	}
	if rep.Outcome.String() != "aborted" {
		t.Fatalf("Outcome.String() = %q", rep.Outcome)
	}
}

// TestWatchContextUncancelledMatchesWatch: threading a live context changes
// nothing about a healthy run.
func TestWatchContextUncancelledMatchesWatch(t *testing.T) {
	k, n := buildNet(t, 3)
	fs := newFuncs(k)
	n.Router(0).Originate(testPrefix)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	epoch := k.Now()
	fs.At(epoch+time.Second, "test.flapdown", func() { n.Router(0).StopOriginating(testPrefix) })
	fs.At(epoch+2*time.Second, "test.flapup", func() { n.Router(0).Originate(testPrefix) })
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	rep := Watch(ctx, n)
	if rep.Outcome != Converged || rep.Err != nil {
		t.Fatalf("report = %s, want converged", rep)
	}
}

// TestWatchdogDrainEndsWhereRunDoes: a drain ends where the last MRAI
// interval would have, had its end been an event (sim.Kernel.Settle). A
// watched drain must settle as Run does, or the clock, and every stimulus
// stamped from it, would move.
func TestWatchdogDrainEndsWhereRunDoes(t *testing.T) {
	drained := func(watch bool) (end, lastEvent time.Duration) {
		g, err := topology.Torus(4, 4)
		if err != nil {
			t.Fatal(err)
		}
		// Undamped, so no reuse timer outlives the last MRAI interval.
		k := sim.NewKernel(sim.WithSeed(5))
		n, err := bgp.NewNetwork(k, g, bgp.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		n.Router(0).Originate(testPrefix)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		n.Router(0).StopOriginating(testPrefix)
		if err := k.RunUntil(k.Now() + 2*time.Second); err != nil {
			t.Fatal(err)
		}
		n.Router(0).Originate(testPrefix)
		k.SetTrace(func(at time.Duration, _ string) { lastEvent = at })
		if watch {
			if rep := Watch(context.Background(), n); rep.Outcome != Converged {
				t.Fatalf("report = %s, want converged", rep)
			}
		} else if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return k.Now(), lastEvent
	}
	runEnd, lastEvent := drained(false)
	watchEnd, _ := drained(true)
	if watchEnd != runEnd {
		t.Fatalf("watchdog drain ends at %v, Run drain at %v", watchEnd, runEnd)
	}
	if runEnd <= lastEvent {
		t.Fatalf("drain ends at its last event (%v): no MRAI interval outlived it, so the test settles nothing", lastEvent)
	}
}
