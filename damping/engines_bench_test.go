package damping

import (
	"fmt"
	"testing"
	"time"

	"rfd/sim"
)

// BenchmarkDampingEngines compares the two damping backends on the workload
// the timer-wheel structure exists for: a router holding 10^5..10^6 damped
// prefixes. Both backends are driven through a real sim.Kernel (the exact
// one as bgp.Router drives it), because the timer machinery is the point of the
// comparison: the exact engine pays a math.Exp materialization plus a
// per-prefix reuse-timer cancel+re-arm (two indexed-heap operations) on
// every suppressed update and one timer pop per release, while the wheel
// pays a quantized table lookup plus an O(1) reuse-list enrollment, with a
// single periodic sweep handler per router. The end-to-end benchmark's
// damping probes (damping.exact.update_ns, damping.wheel.update_ns under
// go run ./bench -trace 1) time one stream without a kernel; this is the
// large-table comparison.
//
//	update/* — per-update cost with every stream suppressed (the flap
//	           storm steady state), timer bookkeeping included.
//	sweep/*  — cost of releasing all n streams once their penalties decay:
//	           exact drains n per-prefix timer firings, the wheel drains
//	           its bucketed reuse lists in DeltaTReuse batches, including
//	           every horizon re-enrollment along the way.
//
// Each update/* op is one stream-update; each sweep/* op releases all n
// streams (divide by n for the per-release cost).
func BenchmarkDampingEngines(b *testing.B) {
	for _, n := range []int{100_000, 1_000_000} {
		b.Run(fmt.Sprintf("update/exact-%d", n), func(b *testing.B) {
			benchUpdateExact(b, n)
		})
		b.Run(fmt.Sprintf("update/wheel-%d", n), func(b *testing.B) {
			benchUpdateWheel(b, n)
		})
		b.Run(fmt.Sprintf("sweep/exact-%d", n), func(b *testing.B) {
			benchSweepExact(b, n)
		})
		b.Run(fmt.Sprintf("sweep/wheel-%d", n), func(b *testing.B) {
			benchSweepWheel(b, n)
		})
	}
}

// benchEpoch is the inter-update gap in the storm steady state. Penalties
// sit near MaxPenalty, so every stream stays suppressed throughout.
const benchEpoch = 120 * time.Second

func benchKernel() *sim.Kernel {
	return sim.NewKernel(sim.WithMaxEvents(1 << 62))
}

func suppressExact(states []*State, base time.Duration) {
	for _, s := range states {
		for k := 0; k < 3; k++ {
			s.Update(base+time.Duration(k)*2*time.Second, KindWithdrawal, true)
		}
	}
}

func suppressWheel(states []*WheelState, base time.Duration) {
	for _, s := range states {
		for k := 0; k < 3; k++ {
			s.Update(base+time.Duration(k)*2*time.Second, KindWithdrawal, true)
		}
	}
}

// discardHandler absorbs timer firings whose work is measured elsewhere.
type discardHandler struct{}

func (discardHandler) HandleEvent(uint64) {}

func benchUpdateExact(b *testing.B, n int) {
	params := Cisco()
	k := benchKernel()
	var discard discardHandler
	states := make([]*State, n)
	timers := make([]sim.Timer, n)
	for i := range states {
		states[i] = NewState(params)
	}
	suppressExact(states, 0)
	now := 10 * time.Second
	for i, s := range states {
		timers[i] = k.AtHandler(now+s.ReuseIn(now), "bench.reuse", &discard, uint64(i))
	}
	kind := KindWithdrawal
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := i % n
		if idx == 0 {
			now += benchEpoch
			if kind == KindWithdrawal {
				kind = KindReannouncement
			} else {
				kind = KindWithdrawal
			}
		}
		ev := states[idx].Update(now, kind, true)
		// The per-prefix path: every suppressed update re-arms the
		// stream's own reuse timer (bgp.Router.armReuse).
		k.Cancel(timers[idx])
		timers[idx] = k.AtHandler(now+ev.ReuseIn, "bench.reuse", &discard, uint64(idx))
	}
}

func benchUpdateWheel(b *testing.B, n int) {
	params := Cisco()
	k := benchKernel()
	var discard discardHandler
	w := NewWheel(params, DefaultWheelConfig())
	states := make([]*WheelState, n)
	for i := range states {
		states[i] = w.NewState(uint64(i))
	}
	suppressWheel(states, 0)
	now := 10 * time.Second
	sweepTimer := k.AtHandler(w.NextSweepAt(now), "bench.sweep", &discard, 0)
	kind := KindWithdrawal
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := i % n
		if idx == 0 {
			now += benchEpoch
			if kind == KindWithdrawal {
				kind = KindReannouncement
			} else {
				kind = KindWithdrawal
			}
		}
		states[idx].Update(now, kind, true)
		// The batch path: one sweep timer per router, armed only when it
		// is not already pending.
		if k.When(sweepTimer) == sim.Never {
			sweepTimer = k.AtHandler(w.NextSweepAt(now), "bench.sweep", &discard, 0)
		}
	}
}

// exactReuseHandler is the per-prefix reuse-timer callback: one firing per
// stream, lifting suppression at its precomputed reuse instant.
type exactReuseHandler struct {
	k      *sim.Kernel
	states []*State
	lifted int
}

func (h *exactReuseHandler) HandleEvent(arg uint64) {
	if h.states[arg].TryReuse(h.k.Now()) {
		h.lifted++
	}
}

func benchSweepExact(b *testing.B, n int) {
	params := Cisco()
	k := benchKernel()
	states := make([]*State, n)
	for i := range states {
		states[i] = NewState(params)
	}
	h := &exactReuseHandler{k: k, states: states}
	base := 10 * time.Second
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		suppressExact(states, base)
		at := base + 10*time.Second
		for j, s := range states {
			k.AtHandler(at+s.ReuseIn(at), "bench.reuse", h, uint64(j))
		}
		h.lifted = 0
		b.StartTimer()
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
		if h.lifted != n {
			b.Fatalf("drained %d of %d streams", h.lifted, n)
		}
		base = k.Now() + time.Minute
	}
}

// wheelSweepHandler is the per-router batch sweep callback: it drains the
// due reuse bucket and re-arms itself while anything stays enrolled.
type wheelSweepHandler struct {
	k      *sim.Kernel
	w      *Wheel
	lift   func(uint64)
	lifted int
}

func (h *wheelSweepHandler) HandleEvent(uint64) {
	now := h.k.Now()
	h.w.Sweep(now, h.lift)
	if h.w.Enrolled() > 0 {
		h.k.AtHandler(h.w.NextSweepAt(now), "bench.sweep", h, 0)
	}
}

func benchSweepWheel(b *testing.B, n int) {
	params := Cisco()
	k := benchKernel()
	cfg := DefaultWheelConfig()
	w := NewWheel(params, cfg)
	states := make([]*WheelState, n)
	for i := range states {
		states[i] = w.NewState(uint64(i))
	}
	h := &wheelSweepHandler{k: k, w: w}
	h.lift = func(uint64) { h.lifted++ }
	// Advancing base by whole ring revolutions keeps every iteration's
	// enrollments in the same (warmed) buckets, so the measurement is the
	// steady state rather than one-time list growth in rotating cold
	// buckets.
	revolution := cfg.DeltaTReuse * time.Duration(len(w.lists))
	base := 10 * time.Second
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		suppressWheel(states, base)
		h.lifted = 0
		b.StartTimer()
		k.AtHandler(w.NextSweepAt(base+10*time.Second), "bench.sweep", h, 0)
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
		if h.lifted != n {
			b.Fatalf("drained %d of %d streams", h.lifted, n)
		}
		base += ((k.Now()+time.Minute-base)/revolution + 1) * revolution
	}
}
