package sim

import (
	"errors"
	"slices"
)

// Fork returns an independent copy of the kernel at its current state: the
// full event queue (slot indices, generations and sequence numbers preserved,
// so an outstanding Timer names the same event on the copy as on the
// original, and Marks, being values, are ahead in the copy exactly when in
// the original), the table of event kinds, the position in the event order,
// the RNG stream position and the executed-event count. The fork shares no
// mutable state with the original: a kind first scheduled on either is added
// to its own table only. Its kinds still name the original's Handler values
// until RemapHandlers rebinds them; the queued events themselves hold no
// handler and are copied as they are. No trace observer is installed on the
// fork — observers are measurement apparatus, not simulation state — and no
// mark source (see SetMarks), which belongs to the forked component.
func (k *Kernel) Fork() *Kernel {
	return &Kernel{
		q:         *k.q.Clone(),
		kinds:     slices.Clone(k.kinds),
		now:       k.now,
		last:      k.last,
		rng:       k.rng.Clone(),
		executed:  k.executed,
		maxEvents: k.maxEvents,
	}
}

// RemapHandlers rewrites the Handler of every event kind through f, which
// must return the replacement handler (typically the corresponding field of a
// forked component). It is the second half of forking a kernel whose events
// point into component state: Fork copies the queue and the kinds,
// RemapHandlers rebinds the kinds, and with them every pending event. It
// costs one call of f per distinct handler, however many kinds and events
// name it, and leaves the packed args as they are. It returns an error naming
// the first kind f has no replacement (nil) for. The table does not track
// which kinds have events pending, so a kind whose events have all fired
// needs a replacement too.
func (k *Kernel) RemapHandlers(f func(Handler) Handler) error {
	var buf [8]Handler
	from := buf[:0] // the handlers before rebinding
	for i := range k.kinds {
		kd := &k.kinds[i]
		from = append(from, kd.h)
		if j := slices.Index(from[:i], kd.h); j >= 0 {
			kd.h = k.kinds[j].h
			continue
		}
		if kd.h = f(kd.h); kd.h == nil {
			return errors.New("sim: fork has no handler for event kind " + kd.name)
		}
	}
	return nil
}
