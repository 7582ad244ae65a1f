package faults

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"rfd/bgp"
	"rfd/sim"
)

// grace is the idle gap required before the network is declared quiescent
// and consistency-checked: no deliveries in flight, no MRAI-held
// announcements, and no queued event within grace of the clock.
const grace = 5 * time.Second

// recent is the size of the recent-event ring kept for the livelock and
// divergence diagnosis.
const recent = 32

// Outcome classifies how a watched run ended.
type Outcome int

const (
	// Converged: the event queue drained and the final consistency check
	// passed.
	Converged Outcome = iota + 1
	// Diverged: a consistency check at a quiescent instant (or the final
	// one) failed. With lossy impairment this is expected — a dropped
	// update is never retransmitted, so RIB-OUT and RIB-IN disagree until
	// the session next resets. The run still drains fully.
	Diverged
	// Livelock: the kernel's event budget was exhausted before the queue
	// drained — almost always a scheduling loop. The run is aborted at that
	// point.
	Livelock
	// Aborted: the supervising context was cancelled or passed its
	// deadline before the queue drained. Unlike Livelock this says
	// nothing about the simulation's health — the caller stopped waiting.
	Aborted
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Converged:
		return "converged"
	case Diverged:
		return "diverged"
	case Livelock:
		return "livelock"
	case Aborted:
		return "aborted"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// TraceEntry is one recent kernel event, kept for diagnosis.
type TraceEntry struct {
	At   time.Duration
	Name string
}

// Report is what the watchdog observed.
type Report struct {
	// Outcome classifies the run; Err carries the first consistency
	// violation (Diverged), the budget detail (Livelock, wrapping
	// sim.ErrEventLimit) or the context's stop (Aborted, wrapping
	// sim.ErrInterrupted and the context's cause), nil otherwise.
	Outcome Outcome
	Err     error
	// DivergedAt is the quiescent instant the first violation was seen.
	DivergedAt time.Duration
	// QuiescentAt is the first instant the network was declared quiescent
	// (zero if it never was before the run ended).
	QuiescentAt time.Duration
	// Events is how many kernel events fired during the watch; Checks how
	// many consistency checks it ran. An MRAI interval that no
	// announcement waits for is a reserved mark, not an event (see
	// sim.Kernel.Reserve): it does not fire, and it does not interrupt a
	// quiet gap, so the watchdog finds quiescent instants sooner and checks
	// more of them than if every interval end were queued.
	Events uint64
	Checks int
	// Recent holds the last events before the run stopped, oldest first —
	// the bounded-event diagnosis for livelock and divergence reports.
	Recent []TraceEntry
}

// String renders a one-line summary.
func (r *Report) String() string {
	s := fmt.Sprintf("%s after %d events (%d consistency checks)", r.Outcome, r.Events, r.Checks)
	if r.Err != nil {
		s += ": " + r.Err.Error()
	}
	return s
}

// Watch drains the network's kernel under supervision. It observes the
// kernel's own RunContext drain rather than stepping it: after every event
// (and once on entry), when the network is quiescent — nothing in flight, no
// MRAI-held announcements, and the next queued event at least grace away — it
// runs Network.CheckConsistency, once per quiescent episode. The first
// violation marks the run Diverged but does not stop it. The kernel's event
// budget (sim.DefaultMaxEvents, or sim.WithMaxEvents) running out aborts it
// as a Livelock, and a cancelled or expired ctx (the wall-clock bound for runs
// that are merely pathologically slow) as Aborted; both attach the most
// recent events as diagnosis and leave the network exactly as the last fired
// event left it, so a caller can inspect partial state. Experiments use Watch
// in place of a fixed event horizon: a healthy run terminates when the queue
// drains, a sick one is diagnosed.
func Watch(ctx context.Context, n *bgp.Network) *Report {
	k := n.Kernel()
	rep := &Report{}

	// Chain onto any existing trace observer to keep the diagnosis ring.
	var ring [recent]TraceEntry
	seen := 0
	prevTrace := k.Trace()
	k.SetTrace(func(at time.Duration, name string) {
		ring[seen%recent] = TraceEntry{At: at, Name: name}
		seen++
		if prevTrace != nil {
			prevTrace(at, name)
		}
	})
	defer k.SetTrace(prevTrace)

	diverged := func(err error) {
		if err != nil && rep.Err == nil {
			rep.Outcome = Diverged
			rep.Err = err
			rep.DivergedAt = k.Now()
		}
	}
	checkedEpisode := false
	lastDelivered := n.Delivered()
	check := func() {
		if !n.Quiescent() {
			return
		}
		if delivered := n.Delivered(); delivered != lastDelivered {
			lastDelivered = delivered
			checkedEpisode = false
		}
		headAt, ok := k.NextEventTime()
		if !ok || checkedEpisode || headAt-k.Now() < grace || n.PendingAnnouncements() != 0 {
			return // a drained queue gets the final check below
		}
		if rep.QuiescentAt == 0 {
			rep.QuiescentAt = k.Now()
		}
		rep.Checks++
		checkedEpisode = true
		diverged(n.CheckConsistency())
	}
	prevAfter := k.AfterEvent()
	k.SetAfterEvent(func(at time.Duration, name string) {
		if prevAfter != nil {
			prevAfter(at, name)
		}
		check()
	})
	defer k.SetAfterEvent(prevAfter)

	start := k.Executed()
	check()
	err := k.RunContext(ctx)
	rep.Events = k.Executed() - start
	switch {
	case errors.Is(err, sim.ErrEventLimit):
		rep.Outcome = Livelock
		rep.Err = fmt.Errorf("faults: watchdog event budget exhausted (%d events): %w", rep.Events, err)
	case err != nil:
		rep.Outcome = Aborted
		rep.Err = fmt.Errorf("faults: watchdog aborted (%d events): %w", rep.Events, err)
	default:
		// Queue drained and clock settled: the network is quiescent by
		// construction, so run the final consistency check.
		rep.Checks++
		diverged(n.CheckConsistency())
		if rep.Outcome == 0 {
			rep.Outcome = Converged
		}
	}
	if rep.Outcome != Converged {
		rep.Recent = ringSlice(ring[:], seen)
	}
	return rep
}

// ringSlice linearizes the diagnosis ring after seen events, oldest entry
// first.
func ringSlice(ring []TraceEntry, seen int) []TraceEntry {
	if seen < len(ring) {
		return slices.Clone(ring[:seen])
	}
	i := seen % len(ring)
	return append(slices.Clone(ring[i:]), ring[:i]...)
}
