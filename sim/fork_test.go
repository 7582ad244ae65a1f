package sim

import (
	"fmt"
	"testing"
	"time"
)

// recorder is a Handler that appends "<now> <arg>" lines, optionally
// rescheduling itself to keep a self-perpetuating event stream going.
type recorder struct {
	k     *Kernel
	lines []string
	chain int // how many more times each event reschedules itself
}

func (r *recorder) HandleEvent(arg uint64) {
	r.lines = append(r.lines, fmt.Sprintf("%d %d %d", r.k.now, arg, r.k.rng.Uint64()))
	if r.chain > 0 {
		r.chain--
		r.k.AtHandler(r.k.Now()+time.Duration(1+r.k.rng.Uint64()%1000), "chain", r, arg+1)
	}
}

// seedKernel builds a kernel with a mix of pending handler events and an
// outstanding timer, advanced partway so the fork is taken mid-run.
func seedKernel(t *testing.T) (*Kernel, *recorder, Timer) {
	t.Helper()
	k := NewKernel(WithSeed(7))
	r := &recorder{k: k, chain: 8}
	k.AtHandler(10, "a", r, 1)
	k.AtHandler(20, "b", r, 2)
	timer := k.AtHandler(50_000, "late", r, 99)
	for i := 0; i < 3; i++ {
		if !k.Step() {
			t.Fatal("queue drained during seeding")
		}
	}
	return k, r, timer
}

func drain(t *testing.T, k *Kernel) {
	t.Helper()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestForkIsIsolatedFromKernel(t *testing.T) {
	k, _, _ := seedKernel(t)
	fork := k.Fork()
	now, pending, executed := fork.Now(), fork.Pending(), fork.Executed()
	if now != k.Now() || pending != k.Pending() || executed != k.Executed() {
		t.Fatalf("fork stands at now=%v pending=%d executed=%d, kernel at now=%v pending=%d executed=%d",
			now, pending, executed, k.Now(), k.Pending(), k.Executed())
	}
	drain(t, k) // mutates the kernel's queue heavily
	if fork.Now() != now || fork.Pending() != pending || fork.Executed() != executed {
		t.Fatalf("running the kernel moved its fork: now %v->%v pending %d->%d executed %d->%d",
			now, fork.Now(), pending, fork.Pending(), executed, fork.Executed())
	}
}

func TestForkAndRemapReplaysIdentically(t *testing.T) {
	k, r, _ := seedKernel(t)
	fork := k.Fork()
	r2 := &recorder{k: fork, chain: r.chain}
	if err := fork.RemapHandlers(func(h Handler) Handler {
		if h != Handler(r) {
			t.Fatalf("unexpected handler %v in queue", h)
		}
		return r2
	}); err != nil {
		t.Fatal(err)
	}

	prefix := len(r.lines)
	drain(t, k)
	drain(t, fork)
	orig := r.lines[prefix:]
	if len(orig) != len(r2.lines) {
		t.Fatalf("fork produced %d events, original %d", len(r2.lines), len(orig))
	}
	for i := range orig {
		if orig[i] != r2.lines[i] {
			t.Fatalf("fork diverged at event %d: %q vs %q", i, r2.lines[i], orig[i])
		}
	}
}

func TestRemapHandlersRejectsNilReplacement(t *testing.T) {
	k, _, _ := seedKernel(t)
	fork := k.Fork()
	if err := fork.RemapHandlers(func(Handler) Handler { return nil }); err == nil {
		t.Fatal("RemapHandlers accepted a nil replacement handler")
	}
}

// TestTimerValidAcrossFork pins the Timer contract: a handle taken before
// Fork names the same event on the parent and on the fork, cancelling it on
// either leaves the other's event pending, and the zero Timer is inert on
// both.
func TestTimerValidAcrossFork(t *testing.T) {
	for _, cancelOnFork := range []bool{true, false} {
		k, _, timer := seedKernel(t)
		fork := k.Fork()
		at := k.When(timer)
		if at == Never || fork.When(timer) != at {
			t.Fatalf("When: parent %v, fork %v; want the same pending instant", at, fork.When(timer))
		}
		cancelled, other := fork, k
		if !cancelOnFork {
			cancelled, other = k, fork
		}
		if !cancelled.Cancel(timer) {
			t.Fatalf("cancelOnFork=%t: Cancel reported not pending", cancelOnFork)
		}
		if cancelled.When(timer) != Never {
			t.Fatalf("cancelOnFork=%t: cancelled timer still pending", cancelOnFork)
		}
		if other.When(timer) != at {
			t.Fatalf("cancelOnFork=%t: cancelling on one kernel moved the other's event to %v", cancelOnFork, other.When(timer))
		}
		pending := other.Pending()
		var zero Timer
		for _, kk := range []*Kernel{k, fork} {
			if kk.Cancel(zero) || kk.When(zero) != Never {
				t.Fatal("the zero Timer is not inert")
			}
		}
		if other.Pending() != pending {
			t.Fatal("cancelling the zero Timer removed an event")
		}
	}
}

func TestForkRNGIndependent(t *testing.T) {
	k := NewKernel(WithSeed(3))
	k.rng.Uint64()
	fork := k.Fork()
	// Same position: next draw matches…
	a, b := k.rng.Uint64(), fork.rng.Uint64()
	if a != b {
		t.Fatalf("fork RNG diverged immediately: %d vs %d", a, b)
	}
	// …but streams are independent: advancing one does not move the other.
	k.rng.Uint64()
	c, d := k.rng.Uint64(), fork.rng.Uint64()
	if c == d {
		t.Fatal("fork RNG appears to share state with the original")
	}
}
