package sim

import (
	"testing"
	"time"
)

func TestRunUntilRepeatedAdvancesClock(t *testing.T) {
	k := NewKernel()
	fs := newFuncs(k)
	fired := 0
	fs.At(10*time.Second, "e", func() { fired++ })
	for horizon := time.Second; horizon <= 9*time.Second; horizon += time.Second {
		if err := k.RunUntil(horizon); err != nil {
			t.Fatal(err)
		}
		if k.Now() != horizon {
			t.Fatalf("Now = %v, want %v", k.Now(), horizon)
		}
		if fired != 0 {
			t.Fatal("event fired early")
		}
	}
	if err := k.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatal("event did not fire at horizon")
	}
}

func TestRunUntilDoesNotRewindClock(t *testing.T) {
	k := NewKernel()
	fs := newFuncs(k)
	fs.At(10*time.Second, "e", func() {})
	if err := k.RunUntil(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 20*time.Second {
		t.Fatalf("clock rewound to %v", k.Now())
	}
}

// TestRescheduleDuringCallback re-arms a pending timer from inside a
// callback, as the BGP engine re-arms a reuse timer: cancel it, push its
// replacement.
func TestRescheduleDuringCallback(t *testing.T) {
	k := NewKernel()
	fs := newFuncs(k)
	var order []string
	var b Timer
	fireB := func() { order = append(order, "b") }
	fs.At(time.Second, "a", func() {
		order = append(order, "a")
		// Move b from 2s out to 5s.
		if !k.Cancel(b) {
			t.Error("re-arm found b not pending")
		}
		b = fs.At(5*time.Second, "b", fireB)
		fs.At(3*time.Second, "c", func() { order = append(order, "c") })
	})
	b = fs.At(2*time.Second, "b", fireB)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "c", "b"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCancelDuringCallback(t *testing.T) {
	k := NewKernel()
	fs := newFuncs(k)
	fired := false
	var victim Timer
	fs.At(time.Second, "killer", func() { k.Cancel(victim) })
	victim = fs.At(2*time.Second, "victim", func() { fired = true })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled-during-run timer fired")
	}
}

func TestManySimultaneousTimersDeterministic(t *testing.T) {
	run := func() []int {
		k := NewKernel(WithSeed(5))
		fs := newFuncs(k)
		var order []int
		for i := 0; i < 100; i++ {
			i := i
			// All at the same instant plus random later re-arms.
			fs.At(time.Second, "e", func() {
				order = append(order, i)
				if i%10 == 0 {
					fs.After(time.Duration(k.rng.Intn(100))*time.Millisecond, "re", func() {
						order = append(order, -i)
					})
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d", i)
		}
	}
}

func TestPendingCount(t *testing.T) {
	k := NewKernel()
	fs := newFuncs(k)
	timers := make([]Timer, 5)
	for i := range timers {
		timers[i] = fs.After(time.Duration(i+1)*time.Second, "e", func() {})
	}
	if k.Pending() != 5 {
		t.Fatalf("Pending = %d", k.Pending())
	}
	k.Cancel(timers[2])
	if k.Pending() != 4 {
		t.Fatalf("Pending after cancel = %d", k.Pending())
	}
	if err := k.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if k.Pending() != 2 {
		t.Fatalf("Pending after partial run = %d", k.Pending())
	}
}

// countingHandler records typed-event deliveries for the handler tests.
type countingHandler struct {
	k    *Kernel
	args []uint64
	at   []time.Duration
}

func (h *countingHandler) HandleEvent(arg uint64) {
	h.args = append(h.args, arg)
	h.at = append(h.at, h.k.Now())
}

func TestHandlerEvents(t *testing.T) {
	k := NewKernel()
	fs := newFuncs(k)
	h := &countingHandler{k: k}
	var names []string
	k.SetTrace(func(_ time.Duration, name string) { names = append(names, name) })
	k.AtHandler(2*time.Second, "typed.b", h, 2)
	k.AtHandler(1*time.Second, "typed.a", h, 1)
	closureFired := false
	fs.After(1500*time.Millisecond, "closure", func() { closureFired = true })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(h.args) != 2 || h.args[0] != 1 || h.args[1] != 2 {
		t.Fatalf("handler args = %v", h.args)
	}
	if h.at[0] != time.Second || h.at[1] != 2*time.Second {
		t.Fatalf("handler times = %v", h.at)
	}
	if !closureFired {
		t.Fatal("closure event interleaved with handlers did not fire")
	}
	want := []string{"typed.a", "closure", "typed.b"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("trace = %v, want %v", names, want)
		}
	}
}

func TestHandlerTimerCancel(t *testing.T) {
	k := NewKernel()
	h := &countingHandler{k: k}
	tm := k.AtHandler(k.Now()+time.Second, "typed", h, 7)
	if k.When(tm) == Never {
		t.Fatal("fresh handler timer not pending")
	}
	if !k.Cancel(tm) {
		t.Fatal("Cancel returned false")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(h.args) != 0 {
		t.Fatal("cancelled handler event fired")
	}
}

func TestNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler did not panic")
		}
	}()
	NewKernel().AtHandler(time.Second, "bad", nil, 0)
}

// TestHandlerScheduleDoesNotAllocate pins the hot-path guarantee: once the
// queue slab has warmed up, scheduling and firing typed events is
// allocation-free.
func TestHandlerScheduleDoesNotAllocate(t *testing.T) {
	k := NewKernel()
	h := &countingHandler{k: k}
	for i := 0; i < 64; i++ {
		k.AtHandler(k.Now()+time.Duration(i)*time.Millisecond, "warm", h, 0)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	h.args = h.args[:0]
	h.at = h.at[:0]
	allocs := testing.AllocsPerRun(1000, func() {
		k.AtHandler(k.Now()+time.Millisecond, "steady", h, 1)
		k.Step()
		h.args = h.args[:0]
		h.at = h.at[:0]
	})
	if allocs != 0 {
		t.Fatalf("steady-state handler schedule allocates %.1f per op, want 0", allocs)
	}
}

// TestTimerWhenReflectsReschedule re-arms a timer (cancel, push the
// replacement): When follows the replacement and reports the old handle as
// not pending.
func TestTimerWhenReflectsReschedule(t *testing.T) {
	k := NewKernel()
	fs := newFuncs(k)
	tm := fs.After(time.Second, "e", func() {})
	if k.When(tm) != time.Second {
		t.Fatalf("When = %v", k.When(tm))
	}
	k.Cancel(tm)
	re := fs.After(9*time.Second, "e", func() {})
	if k.When(re) != 9*time.Second || k.When(tm) != Never {
		t.Fatalf("When after re-arm = %v (old handle %v), want 9s (Never)", k.When(re), k.When(tm))
	}
}
