// Package xrand provides a small, fast, deterministic pseudo-random number
// generator for simulations.
//
// The simulator requires bit-for-bit reproducible runs across Go releases and
// platforms. math/rand's generator and its convenience helpers have changed
// behaviour between Go versions (and math/rand/v2 re-seeds differently), so
// the kernel uses this self-contained implementation instead: a splitmix64
// seed expander feeding a xoshiro256** state, the same construction used by
// the Go runtime and by math/rand/v2 internally.
//
// Rand is not safe for concurrent use; every simulation run owns its own
// instance. Derive independent child generators with Split.
package xrand

import "math/bits"

// Rand is a deterministic pseudo-random number generator.
// The zero value is not usable; construct with New.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from the given seed. Two generators built
// from the same seed produce identical streams.
func New(seed uint64) *Rand {
	var r Rand
	// splitmix64 expansion, recommended seeding procedure for xoshiro.
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// xoshiro must not be seeded with an all-zero state; splitmix64 cannot
	// produce one from any seed, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return &r
}

// Split derives a new generator whose stream is independent of the parent's
// subsequent output. Use it to give each subsystem (links, timers, …) its own
// stream so adding a consumer does not perturb the others.
func (r *Rand) Split() *Rand {
	return New(r.Uint64())
}

// Clone returns an independent generator at the same stream position: both
// copies produce the identical remaining sequence without affecting each
// other. It is the basis of the simulator's fork capability.
func (r *Rand) Clone() *Rand {
	c := *r
	return &c
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the stream (xoshiro256**).
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform value in [0, n). It panics if n <= 0, mirroring
// math/rand; callers control n and a non-positive bound is a programming
// error, not a runtime condition.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0. It draws
// exactly as Intn does, so the two agree wherever both accept n; unlike
// Intn it takes a time.Duration span of any length on a 32-bit int.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n called with zero n")
	}
	// Lemire's multiply-shift rejection method: unbiased and branch-cheap.
	for {
		hi, lo := bits.Mul64(r.Uint64(), n)
		if lo >= n || lo >= (-n)%n {
			return hi
		}
	}
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}
