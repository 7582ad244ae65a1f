package faults

import (
	"fmt"
	"time"

	"rfd/bgp"
	"rfd/internal/xrand"
)

// Profile describes the steady-state impairment of one directed link: each
// message is lost with probability Loss, and surviving messages are delayed
// by a uniform extra amount in [0, MaxJitter). The zero Profile is a perfect
// link.
type Profile struct {
	// Loss is the per-message drop probability, in [0, 1].
	Loss float64
	// MaxJitter bounds the uniform extra delivery delay (0 disables jitter).
	MaxJitter time.Duration
}

// Validate checks the profile's ranges.
func (p Profile) Validate() error {
	if p.Loss < 0 || p.Loss > 1 {
		return fmt.Errorf("faults: loss probability %g outside [0, 1]", p.Loss)
	}
	if p.MaxJitter < 0 {
		return fmt.Errorf("faults: negative jitter bound %v", p.MaxJitter)
	}
	return nil
}

// window is one time-bounded loss override.
type window struct {
	start, end time.Duration
	rate       float64
	from, to   bgp.RouterID // Wildcard/Wildcard matches every direction
}

// Impairments is the standard bgp.LinkImpairment: one profile for every
// direction, and time-bounded burst-loss windows. All
// randomness comes from one seeded stream consumed in the engine's
// deterministic send order, so a run with a given seed and plan is exactly
// reproducible.
//
// Impairments is not safe for concurrent use; every simulation run owns its
// own instance.
type Impairments struct {
	rng     *xrand.Rand
	seed    uint64
	def     Profile
	windows []window
	// perLink, when non-nil, holds one lazily-derived RNG stream per
	// directed link instead of the single global stream (see
	// UseLinkStreams).
	perLink map[dirKey]*xrand.Rand
}

// dirKey keys a directed link endpoint pair.
type dirKey struct {
	from, to bgp.RouterID
}

// NewImpairments returns an impairment model with a perfect default profile,
// drawing randomness from a stream derived from seed (independent of the
// network's own streams for the same seed).
func NewImpairments(seed uint64) *Impairments {
	return &Impairments{
		rng:  xrand.New(seed).Split(),
		seed: seed,
	}
}

// UseLinkStreams switches the model from the single global stream — consumed
// in the engine's global send order — to an independent stream per directed
// link, derived deterministically from (seed, from, to) on first use.
//
// The global stream's consumption order is an artifact of the sequential
// engine: the sharded engine interleaves sends from different shards
// differently, so the same seed would impair different messages. Per-link
// streams are engine-independent — each directed link is sent from exactly
// one shard, in FIFO order, so every engine consumes each stream
// identically. Enable it before the run starts, and on both engines when
// comparing traces; the two modes are deliberately different random
// sequences even on the sequential engine.
func (im *Impairments) UseLinkStreams() {
	im.perLink = make(map[dirKey]*xrand.Rand)
}

// LinkStreams reports whether the model is in per-link stream mode (see
// UseLinkStreams). The sharded engine requires it.
func (im *Impairments) LinkStreams() bool { return im.perLink != nil }

// linkRNG returns the directed link's stream, deriving it on first use.
func (im *Impairments) linkRNG(from, to bgp.RouterID) *xrand.Rand {
	k := dirKey{from, to}
	if r, ok := im.perLink[k]; ok {
		return r
	}
	// Mix the endpoints into the seed; xrand.New splitmixes the result, so
	// adjacent (seed, from, to) triples still yield unrelated streams.
	h := im.seed ^ uint64(uint32(from))<<32 ^ uint64(uint32(to))*0x9E3779B97F4A7C15
	r := xrand.New(h).Split()
	im.perLink[k] = r
	return r
}

// SetDefault installs the profile applied to every direction.
func (im *Impairments) SetDefault(p Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	im.def = p
	return nil
}

// AddWindow forces a loss rate on the from→to direction (Wildcard/Wildcard:
// every direction) during [start, end), overriding lower profile rates —
// the effective loss is the maximum of the profile's and every active
// window's. Rate 1 models a burst outage. Times are kernel-absolute; Plan
// events shift themselves by the plan epoch before calling this.
func (im *Impairments) AddWindow(start, end time.Duration, rate float64, from, to bgp.RouterID) {
	im.windows = append(im.windows, window{start: start, end: end, rate: rate, from: from, to: to})
}

// Fork returns an independent copy at the same deterministic stream position:
// profile, windows and the exact RNG state. The copy and the original
// consume their streams independently, so each fork of a network snapshot
// reproduces the impairment decisions a from-scratch run would make.
func (im *Impairments) Fork() *Impairments {
	c := &Impairments{
		rng:     im.rng.Clone(),
		seed:    im.seed,
		def:     im.def,
		windows: append([]window(nil), im.windows...),
	}
	if im.perLink != nil {
		c.perLink = make(map[dirKey]*xrand.Rand, len(im.perLink))
		for k, r := range im.perLink {
			c.perLink[k] = r.Clone()
		}
	}
	return c
}

// ForkImpairment implements bgp.ImpairmentForker.
func (im *Impairments) ForkImpairment() bgp.LinkImpairment { return im.Fork() }

// Impair implements bgp.LinkImpairment.
func (im *Impairments) Impair(at time.Duration, from, to bgp.RouterID) (bool, time.Duration) {
	loss := im.def.Loss
	for _, w := range im.windows {
		if at < w.start || at >= w.end {
			continue
		}
		if (w.from == Wildcard && w.to == Wildcard) || (w.from == from && w.to == to) {
			if w.rate > loss {
				loss = w.rate
			}
		}
	}
	rng := im.rng
	if im.perLink != nil {
		rng = im.linkRNG(from, to)
	}
	if loss > 0 && (loss >= 1 || rng.Float64() < loss) {
		return true, 0
	}
	var jitter time.Duration
	if im.def.MaxJitter > 0 {
		jitter = time.Duration(rng.Uint64n(uint64(im.def.MaxJitter)))
	}
	return false, jitter
}
