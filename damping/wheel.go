package damping

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// WheelConfig fixes the quantization geometry of a Wheel. The defaults
// mirror BIRD's constants: a 1s decay tick and a 5s reuse sweep.
type WheelConfig struct {
	// DeltaT is the decay quantum: penalties decay in whole DeltaT steps
	// via a precomputed lookup table instead of per-touch math.Exp.
	DeltaT time.Duration
	// DeltaTReuse is the reuse-sweep period: suppressed streams sit in
	// bucketed reuse lists and are re-examined only when their bucket's
	// sweep tick arrives.
	DeltaTReuse time.Duration
	// MaxLists caps the number of reuse list buckets. Streams whose
	// predicted reuse instant lies beyond the wheel horizon park in the
	// last bucket and re-enroll when swept.
	MaxLists int
}

// DefaultWheelConfig returns BIRD's geometry: 1s decay ticks, 5s reuse
// sweeps, up to 4096 reuse lists.
func DefaultWheelConfig() WheelConfig {
	return WheelConfig{DeltaT: time.Second, DeltaTReuse: 5 * time.Second, MaxLists: 4096}
}

// WithDefaults returns the config with zero-valued fields replaced by
// DefaultWheelConfig's, and DeltaTReuse raised to DeltaT when a partial
// override left it smaller. NewWheel applies it implicitly.
func (c WheelConfig) WithDefaults() WheelConfig {
	def := DefaultWheelConfig()
	if c.DeltaT <= 0 {
		c.DeltaT = def.DeltaT
	}
	if c.DeltaTReuse <= 0 {
		c.DeltaTReuse = def.DeltaTReuse
	}
	if c.MaxLists <= 0 {
		c.MaxLists = def.MaxLists
	}
	if c.DeltaTReuse < c.DeltaT {
		c.DeltaTReuse = c.DeltaT
	}
	return c
}

// maxDecayTable bounds the decay lookup table length regardless of how
// long MaxHoldDown is relative to DeltaT.
const maxDecayTable = 1 << 16

// reuseTolerance is the relative slack applied when comparing a decayed
// penalty against the reuse threshold, matching the exact backend's
// TryReuse tolerance.
const reuseTolerance = 1e-9

// minWheelPenalty is the flush-to-zero floor: quantized penalties below it
// are clamped to exactly zero. It sits far below the 1e-9 relative
// tolerance the wheel is compared against the exact State with.
const minWheelPenalty = 1e-12

// Wheel is a timer-wheel damping structure (BIRD-style) for routers that
// carry 10^5–10^6 damped prefixes. One Wheel per router owns every
// WheelState the router's RIB-IN entries hold and amortizes their
// bookkeeping three ways:
//
//   - decay is quantized to DeltaT ticks and computed by table lookup
//     (decay[i] = e^(-lambda*i*DeltaT)), never math.Exp on the hot path;
//   - reuse instants are predicted by scale-factor indexing: ceiling[k] =
//     ReuseThreshold * e^(lambda*(k+1)*DeltaTReuse) is the largest penalty
//     that can decay to the reuse threshold within k+1 sweep periods, so a
//     binary search over ceilings replaces math.Log per suppression;
//   - suppressed streams enroll in one of N reuse lists forming a ring
//     keyed by sweep tick, and a single periodic sweep per router drains
//     the due bucket — no per-prefix kernel timers.
//
// Error bound: update instants round down to tick boundaries, so the
// quantized elapsed time between any charge and a later query misses the
// exact elapsed time by strictly less than one DeltaT in either direction
// (the error is frac(charge) - frac(query), which telescopes — it does not
// accumulate across charges). At every instant,
// exactPenalty / e^(lambda*DeltaT) <= wheelPenalty <= exactPenalty * e^(lambda*DeltaT).
// Reuse is lifted at the first sweep tick at which the quantized penalty has
// decayed to the threshold, which lands within
// [exactReuse - DeltaT, exactReuse + DeltaT + DeltaTReuse].
//
// The simulator does not damp with it: moving reuse instants changes the
// timer interaction the paper measures, and every scenario announces one
// prefix, where the exact State is faster. The bench package's
// damping.wheel probes measure it.
type Wheel struct {
	params Params
	cfg    WheelConfig
	max    float64 // params.MaxPenalty(), precomputed

	decay   []float64 // decay[i] = e^(-lambda * i * DeltaT)
	ceiling []float64 // ceiling[k] = ReuseThreshold * e^(lambda*(k+1)*DeltaTReuse)

	lists     [][]*WheelState // ring of reuse lists keyed by dueTick % len(lists)
	enrolled  int
	lastSweep int64 // last reuse tick fully swept
}

// NewWheel builds a wheel for one router. Zero-valued cfg fields fall back
// to DefaultWheelConfig; params must already be validated.
func NewWheel(params Params, cfg WheelConfig) *Wheel {
	cfg = cfg.WithDefaults()
	w := &Wheel{params: params, cfg: cfg, max: params.MaxPenalty()}

	// After MaxHoldDown of quiet the penalty is below the reuse threshold
	// by construction, so neither table needs to reach past it.
	lambda := params.Lambda()
	dn := int(params.MaxHoldDown/cfg.DeltaT) + 2
	if dn > maxDecayTable {
		dn = maxDecayTable
	}
	if dn < 2 {
		dn = 2
	}
	w.decay = make([]float64, dn)
	for i := range w.decay {
		w.decay[i] = math.Exp(-lambda * (time.Duration(i) * cfg.DeltaT).Seconds())
	}

	nlists := int(params.MaxHoldDown/cfg.DeltaTReuse) + 2
	if nlists > cfg.MaxLists {
		nlists = cfg.MaxLists
	}
	if nlists < 3 {
		nlists = 3
	}
	w.lists = make([][]*WheelState, nlists)
	w.ceiling = make([]float64, nlists-1)
	for k := range w.ceiling {
		w.ceiling[k] = params.ReuseThreshold * math.Exp(lambda*(time.Duration(k+1)*cfg.DeltaTReuse).Seconds())
	}
	return w
}

// Enrolled returns how many streams currently sit in reuse lists. The
// owning router keeps its sweep timer armed exactly while this is nonzero.
func (w *Wheel) Enrolled() int { return w.enrolled }

// NewState mints a fresh stream state owned by this wheel. key is an
// opaque caller identifier handed back by Sweep's lift callback.
func (w *Wheel) NewState(key uint64) *WheelState {
	return &WheelState{w: w, key: key, dueTick: -1}
}

// NextSweepAt returns the first sweep instant strictly after now: the next
// DeltaTReuse boundary.
func (w *Wheel) NextSweepAt(now time.Duration) time.Duration {
	return time.Duration(w.reuseTick(now)+1) * w.cfg.DeltaTReuse
}

// Sweep drains every reuse list due at or before now. Streams whose
// quantized penalty has decayed to the reuse threshold are unsuppressed
// and reported through lift (in reverse enrollment order per bucket);
// streams parked short of their real reuse instant re-enroll further out.
func (w *Wheel) Sweep(now time.Duration, lift func(key uint64)) {
	cur := w.reuseTick(now)
	n := int64(len(w.lists))
	for t := w.lastSweep + 1; t <= cur; t++ {
		w.lastSweep = t
		at := time.Duration(t) * w.cfg.DeltaTReuse
		idx := t % n
		for len(w.lists[idx]) > 0 {
			list := w.lists[idx]
			s := list[len(list)-1]
			w.remove(s)
			s.materialize(at)
			if s.penalty <= w.params.ReuseThreshold*(1+reuseTolerance) {
				s.suppressed = false
				if lift != nil {
					lift(s.key)
				}
			} else {
				w.enroll(s, at)
			}
		}
	}
}

func (w *Wheel) tick(t time.Duration) int64      { return int64(t / w.cfg.DeltaT) }
func (w *Wheel) reuseTick(t time.Duration) int64 { return int64(t / w.cfg.DeltaTReuse) }

// decayBy applies n decay ticks to p by table lookup, chunking when n
// exceeds the table.
func (w *Wheel) decayBy(p float64, n int64) float64 {
	if p == 0 || n <= 0 {
		return p
	}
	last := int64(len(w.decay) - 1)
	for n > last {
		p *= w.decay[last]
		n -= last
		if p < minWheelPenalty {
			return 0
		}
	}
	p *= w.decay[n]
	if p < minWheelPenalty {
		return 0
	}
	return p
}

// reuseOffset returns how many whole sweep periods (>= 1) until penalty p
// can have decayed to the reuse threshold, by binary search over the
// precomputed ceilings.
func (w *Wheel) reuseOffset(p float64) int64 {
	i := sort.SearchFloat64s(w.ceiling, p)
	if i == len(w.ceiling) {
		// Beyond the wheel horizon; park in the farthest bucket.
		return int64(len(w.ceiling))
	}
	return int64(i) + 1
}

// enroll inserts s into the reuse list due reuseOffset periods after now,
// clamped to the wheel horizon. Re-enrolling moves the state.
func (w *Wheel) enroll(s *WheelState, now time.Duration) {
	cur := w.reuseTick(now)
	if w.enrolled == 0 {
		// Empty wheel: the sweep clock restarts from here. The owning
		// router arms its sweep timer on the transition 0 -> 1.
		w.lastSweep = cur
	}
	due := cur + w.reuseOffset(s.penalty)
	if limit := w.lastSweep + int64(len(w.lists)) - 1; due > limit {
		due = limit
	}
	if due <= w.lastSweep {
		due = w.lastSweep + 1
	}
	if s.dueTick == due {
		return
	}
	if s.dueTick >= 0 {
		w.remove(s)
	}
	idx := due % int64(len(w.lists))
	s.listPos = int32(len(w.lists[idx]))
	s.dueTick = due
	w.lists[idx] = append(w.lists[idx], s)
	w.enrolled++
}

// remove detaches s from its reuse list by swap-removal.
func (w *Wheel) remove(s *WheelState) {
	idx := s.dueTick % int64(len(w.lists))
	list := w.lists[idx]
	last := len(list) - 1
	if int(s.listPos) != last {
		moved := list[last]
		list[s.listPos] = moved
		moved.listPos = s.listPos
	}
	w.lists[idx] = list[:last]
	s.dueTick = -1
	s.listPos = 0
	w.enrolled--
}

// WheelState is one stream's damping state inside a Wheel. It has the
// exact State's per-stream methods; unlike the exact State it never calls
// math.Exp or math.Log after construction of its wheel.
type WheelState struct {
	w          *Wheel
	key        uint64
	penalty    float64
	lastTick   int64 // decay tick the penalty is materialized at
	dueTick    int64 // reuse tick this state is enrolled under, -1 if none
	listPos    int32 // index within its reuse list
	suppressed bool
}

// Suppressed reports whether the route is currently suppressed.
func (s *WheelState) Suppressed() bool { return s.suppressed }

// ReuseAt returns the sweep instant this state is enrolled under; ok is
// false when the state is not in any reuse list.
func (s *WheelState) ReuseAt() (time.Duration, bool) {
	if s.dueTick < 0 {
		return 0, false
	}
	return time.Duration(s.dueTick) * s.w.cfg.DeltaTReuse, true
}

// materialize decays the penalty to now's tick boundary.
func (s *WheelState) materialize(now time.Duration) {
	nt := s.w.tick(now)
	if nt <= s.lastTick {
		return
	}
	s.penalty = s.w.decayBy(s.penalty, nt-s.lastTick)
	s.lastTick = nt
}

// Update feeds one classified update into the state, mirroring
// State.Update. When the stream becomes (or stays) suppressed the state
// (re-)enrolls in the wheel's reuse lists; the returned Event.ReuseIn is
// the quantized delay until its reuse bucket is swept.
func (s *WheelState) Update(now time.Duration, kind Kind, charge bool) Event {
	w := s.w
	s.materialize(now)

	ev := Event{Kind: kind}
	if charge {
		ev.Increment = w.params.Increment(kind)
	}
	s.penalty += ev.Increment
	if s.penalty > w.max {
		s.penalty = w.max
	}
	ev.Penalty = s.penalty

	if !s.suppressed && s.penalty > w.params.CutoffThreshold {
		s.suppressed = true
		ev.BecameSuppressed = true
	}
	ev.Suppressed = s.suppressed
	if s.suppressed {
		w.enroll(s, now)
		if due := time.Duration(s.dueTick) * w.cfg.DeltaTReuse; due > now {
			ev.ReuseIn = due - now
		}
	}
	return ev
}

// String renders a compact debug description.
func (s *WheelState) String() string {
	due := "-"
	if at, ok := s.ReuseAt(); ok {
		due = at.String()
	}
	return fmt.Sprintf("wheel{penalty=%.1f@tick%d suppressed=%t due=%s}", s.penalty, s.lastTick, s.suppressed, due)
}
