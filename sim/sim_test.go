package sim

import (
	"errors"
	"testing"
	"time"
)

// funcs schedules closures on one kernel for tests. It is a single Handler
// whose arg indexes the closure to run, so the closures scheduled through it
// under one name share one event kind.
type funcs struct {
	k   *Kernel
	fns []func()
}

func newFuncs(k *Kernel) *funcs { return &funcs{k: k} }

func (f *funcs) HandleEvent(arg uint64) { f.fns[arg]() }

// add keeps fn and returns the arg that runs it.
func (f *funcs) add(fn func()) uint64 {
	f.fns = append(f.fns, fn)
	return uint64(len(f.fns) - 1)
}

// At schedules fn at absolute virtual time at.
func (f *funcs) At(at time.Duration, name string, fn func()) Timer {
	return f.k.AtHandler(at, name, f, f.add(fn))
}

// After schedules fn d after the current virtual time.
func (f *funcs) After(d time.Duration, name string, fn func()) Timer {
	return f.At(f.k.Now()+d, name, fn)
}

// AtMark schedules fn under the mark m.
func (f *funcs) AtMark(m Mark, name string, fn func()) Timer {
	return f.k.AtMark(m, f.k.Kind(name, f), f.add(fn))
}

func TestRunEmptyKernel(t *testing.T) {
	k := NewKernel()
	if err := k.Run(); err != nil {
		t.Fatalf("Run on empty kernel: %v", err)
	}
	if k.Now() != 0 {
		t.Fatalf("Now = %v, want 0", k.Now())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	k := NewKernel()
	fs := newFuncs(k)
	var order []string
	fs.At(3*time.Second, "c", func() { order = append(order, "c") })
	fs.At(1*time.Second, "a", func() { order = append(order, "a") })
	fs.At(2*time.Second, "b", func() { order = append(order, "b") })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(order); got != 3 {
		t.Fatalf("fired %d events, want 3", got)
	}
	if order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v", order)
	}
	if k.Now() != 3*time.Second {
		t.Fatalf("Now = %v, want 3s", k.Now())
	}
}

func TestEqualTimesFireInScheduleOrder(t *testing.T) {
	k := NewKernel()
	fs := newFuncs(k)
	var order []int
	for i := 0; i < 20; i++ {
		i := i
		fs.At(time.Second, "e", func() { order = append(order, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events fired out of schedule order: %v", order)
		}
	}
}

func TestClockAdvancesDuringCallback(t *testing.T) {
	k := NewKernel()
	fs := newFuncs(k)
	var seen time.Duration
	fs.After(5*time.Second, "probe", func() { seen = k.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if seen != 5*time.Second {
		t.Fatalf("Now inside callback = %v, want 5s", seen)
	}
}

func TestCallbackMaySchedule(t *testing.T) {
	k := NewKernel()
	fs := newFuncs(k)
	var times []time.Duration
	fs.After(time.Second, "first", func() {
		times = append(times, k.Now())
		fs.After(time.Second, "second", func() {
			times = append(times, k.Now())
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 || times[0] != time.Second || times[1] != 2*time.Second {
		t.Fatalf("times = %v", times)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	fs := newFuncs(k)
	fs.After(10*time.Second, "later", func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		fs.At(time.Second, "past", func() {})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTimerCancel(t *testing.T) {
	k := NewKernel()
	fs := newFuncs(k)
	fired := false
	timer := fs.After(time.Second, "x", func() { fired = true })
	if k.When(timer) == Never {
		t.Fatal("fresh timer not pending")
	}
	if !k.Cancel(timer) {
		t.Fatal("Cancel returned false")
	}
	if k.When(timer) != Never {
		t.Fatal("cancelled timer still pending")
	}
	if k.Cancel(timer) {
		t.Fatal("second Cancel returned true")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestZeroTimerSafe(t *testing.T) {
	k := NewKernel()
	fs := newFuncs(k)
	fs.After(time.Second, "bystander", func() {})
	var timer Timer
	if k.Cancel(timer) {
		t.Fatal("zero timer cancel returned true")
	}
	if k.When(timer) != Never {
		t.Fatalf("zero timer When = %v, want Never", k.When(timer))
	}
	if k.Pending() != 1 {
		t.Fatal("cancelling the zero timer removed an event")
	}
}

// TestTimerWhenSentinel pins the Never sentinel: When must not report the
// stale schedule time once a timer has fired or been cancelled, even after
// the kernel reuses the underlying queue slot for a later event.
func TestTimerWhenSentinel(t *testing.T) {
	k := NewKernel()
	fs := newFuncs(k)
	fired := fs.After(time.Second, "fires", func() {})
	if k.When(fired) != time.Second {
		t.Fatalf("pending When = %v, want 1s", k.When(fired))
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := k.When(fired); got != Never {
		t.Fatalf("fired timer When = %v, want Never", got)
	}

	cancelled := fs.After(time.Second, "cancelled", func() {})
	k.Cancel(cancelled)
	if got := k.When(cancelled); got != Never {
		t.Fatalf("cancelled timer When = %v, want Never", got)
	}

	// Reuse the freed slot: the stale handle must keep reporting Never, not
	// the new occupant's time.
	replacement := fs.After(5*time.Second, "replacement", func() {})
	if got := k.When(cancelled); got != Never {
		t.Fatalf("stale timer When after slot reuse = %v, want Never", got)
	}
	if k.Cancel(cancelled) || k.When(replacement) != k.Now()+5*time.Second {
		t.Fatalf("stale Cancel touched the replacement: When = %v", k.When(replacement))
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	k := NewKernel()
	fs := newFuncs(k)
	var fired []string
	fs.At(time.Second, "a", func() { fired = append(fired, "a") })
	fs.At(5*time.Second, "b", func() { fired = append(fired, "b") })
	if err := k.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != "a" {
		t.Fatalf("fired = %v, want [a]", fired)
	}
	if k.Now() != 2*time.Second {
		t.Fatalf("Now = %v, want horizon 2s", k.Now())
	}
	if k.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", k.Pending())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired = %v after full run", fired)
	}
}

func TestRunUntilInclusiveOfHorizon(t *testing.T) {
	k := NewKernel()
	fs := newFuncs(k)
	fired := false
	fs.At(2*time.Second, "edge", func() { fired = true })
	if err := k.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("event exactly at horizon did not fire")
	}
}

func TestEventLimit(t *testing.T) {
	k := NewKernel(WithMaxEvents(100))
	fs := newFuncs(k)
	var rearm func()
	rearm = func() { fs.After(time.Millisecond, "loop", rearm) }
	fs.After(time.Millisecond, "loop", rearm)
	err := k.Run()
	if !errors.Is(err, ErrEventLimit) {
		t.Fatalf("err = %v, want ErrEventLimit", err)
	}
	if k.Executed() != 100 {
		t.Fatalf("Executed = %d, want 100", k.Executed())
	}
}

func TestEventLimitRunUntil(t *testing.T) {
	k := NewKernel(WithMaxEvents(10))
	fs := newFuncs(k)
	var rearm func()
	rearm = func() { fs.After(time.Millisecond, "loop", rearm) }
	fs.After(time.Millisecond, "loop", rearm)
	if err := k.RunUntil(time.Hour); !errors.Is(err, ErrEventLimit) {
		t.Fatalf("err = %v, want ErrEventLimit", err)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []time.Duration {
		k := NewKernel(WithSeed(42))
		fs := newFuncs(k)
		var fires []time.Duration
		var step func()
		step = func() {
			fires = append(fires, k.Now())
			if len(fires) < 50 {
				fs.After(time.Duration(k.rng.Intn(1000))*time.Millisecond, "step", step)
			}
		}
		fs.After(0, "step", step)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return fires
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at event %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTrace(t *testing.T) {
	k := NewKernel()
	fs := newFuncs(k)
	var names []string
	k.SetTrace(func(_ time.Duration, name string) { names = append(names, name) })
	fs.At(time.Second, "one", func() {})
	fs.At(2*time.Second, "two", func() {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "one" || names[1] != "two" {
		t.Fatalf("trace = %v", names)
	}
}

func TestExecutedCount(t *testing.T) {
	k := NewKernel()
	fs := newFuncs(k)
	for i := 0; i < 7; i++ {
		fs.After(time.Duration(i)*time.Second, "e", func() {})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Executed() != 7 {
		t.Fatalf("Executed = %d, want 7", k.Executed())
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	k := NewKernel()
	if k.Step() {
		t.Fatal("Step on empty kernel returned true")
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		fs := newFuncs(k)
		n := 0
		var step func()
		step = func() {
			n++
			if n < 1000 {
				fs.After(time.Millisecond, "step", step)
			}
		}
		fs.After(0, "step", step)
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
