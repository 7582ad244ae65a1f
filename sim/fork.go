package sim

import (
	"errors"
	"time"
)

// Fork returns an independent copy of the kernel at its current state: the
// full event queue (slot indices, generations and sequence numbers preserved,
// so an outstanding Timer names the same event on the copy as on the
// original, and Marks, being values, are ahead in the copy exactly when in
// the original), the position in the event order, the RNG stream position and
// the executed-event count. The fork shares no mutable state with the
// original; pending events still reference the original's Handler values
// until RemapHandlers rebinds them. No trace observer is installed on the
// fork — observers are measurement apparatus, not simulation state — and no
// mark source (see SetMarks), which belongs to the forked component.
func (k *Kernel) Fork() *Kernel {
	return &Kernel{
		q:         *k.q.Clone(),
		now:       k.now,
		last:      k.last,
		rng:       k.rng.Clone(),
		executed:  k.executed,
		maxEvents: k.maxEvents,
	}
}

// RemapHandlers rewrites the Handler of every pending event through f, which
// must return the replacement handler (typically the corresponding field of a
// forked component). It is the second half of forking a kernel whose pending
// events point into component state: Fork copies the queue, RemapHandlers
// rebinds it. The packed args are preserved. It returns an error naming the
// first event f has no replacement (nil) for.
func (k *Kernel) RemapHandlers(f func(Handler) Handler) error {
	var err error
	k.q.ForEach(func(_ time.Duration, ev *event) {
		if err != nil {
			return
		}
		if ev.h = f(ev.h); ev.h == nil {
			err = errors.New("sim: fork has no handler for pending event " + ev.name)
		}
	})
	return err
}
