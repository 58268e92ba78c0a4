// Package rng provides a deterministic, splittable pseudo-random number
// generator used throughout the evolutionary game dynamics framework.
//
// Reproducibility across ranks is essential for the parallel engine: the
// Nature Agent and every Strategy Set rank must be able to derive independent
// streams from a single experiment seed so that a run is bit-for-bit
// repeatable regardless of scheduling.  The generator is xoshiro256**, seeded
// through SplitMix64, which is the standard recipe recommended by the
// xoshiro authors and has no measurable correlation between streams split
// from distinct SplitMix64 outputs.
//
// The package intentionally does not use math/rand's global state: the
// framework needs many independent generators (one per rank, one per worker
// goroutine) with cheap construction and no locking.
package rng

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Source is a deterministic xoshiro256** generator.  It is NOT safe for
// concurrent use; each goroutine should own its own Source (use Split to
// derive child streams).
type Source struct {
	s [4]uint64
}

// splitmix64 advances the SplitMix64 state and returns the next output.
// It is used only for seeding xoshiro256** state words.
func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// New returns a Source seeded from the given 64-bit seed.  Two Sources built
// from the same seed produce identical streams.
func New(seed uint64) *Source {
	s := &Source{}
	s.Reseed(seed)
	return s
}

// Reseed resets the generator to the state derived from seed.
func (s *Source) Reseed(seed uint64) {
	sm := seed
	for i := range s.s {
		s.s[i] = splitmix64(&sm)
	}
	// A state of all zeros is the one invalid xoshiro state; SplitMix64 can
	// only produce it with negligible probability, but guard regardless.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 0x9E3779B97F4A7C15
	}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	var out uint64
	out, s.s[0], s.s[1], s.s[2], s.s[3] = next(s.s[0], s.s[1], s.s[2], s.s[3])
	return out
}

// next is one xoshiro256** step on state words held in locals: it returns
// the output and the advanced state.
func next(s0, s1, s2, s3 uint64) (out, n0, n1, n2, n3 uint64) {
	out = bits.RotateLeft64(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = bits.RotateLeft64(s3, 45)
	return out, s0, s1, s2, s3
}

// Split derives a new, statistically independent Source from the current
// stream.  The parent stream is advanced.  Splitting is the supported way to
// hand independent generators to ranks and worker goroutines.
func (s *Source) Split() *Source {
	child := &Source{}
	s.SplitInto(child)
	return child
}

// SplitInto is Split without the allocation: it reseeds dst as the child
// Split would have returned, advancing the parent identically.
func (s *Source) SplitInto(dst *Source) {
	// Derive the child seed from two parent outputs mixed through SplitMix64
	// so that children of successive Split calls do not share obvious
	// structure with the parent's raw outputs.
	seed := s.Uint64() ^ bits.RotateLeft64(s.Uint64(), 32)
	dst.Reseed(seed)
}

// SplitN returns n independent child Sources (see Split).
func (s *Source) SplitN(n int) []*Source {
	children := make([]*Source, n)
	for i := range children {
		children[i] = s.Split()
	}
	return children
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (s *Source) Float64() float64 {
	// 53 high bits -> uniform double in [0,1).
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed int in [0, n).  It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly distributed uint64 in [0, n) using Lemire's
// nearly-divisionless bounded generation.  It panics if n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	hi, lo := bits.Mul64(s.Uint64(), n)
	if lo < n {
		threshold := -n % n
		for lo < threshold {
			hi, lo = bits.Mul64(s.Uint64(), n)
		}
	}
	return hi
}

// Bool returns true with probability p.  Values of p outside [0,1] are
// clamped.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Bernoulli is Bool(p) with the float comparison precomputed as an integer
// threshold, for loops that draw many events of one fixed probability.  For
// p in (0,1), Float64() < p holds exactly when Uint64()>>11 < ceil(p·2⁵³):
// Float64 is k/2⁵³ for the integer k = Uint64()>>11, the scaling by a power
// of two is exact, and an integer is below a real exactly when it is below
// the real's ceiling.  The zero value never fires.
type Bernoulli struct {
	// thr is ceil(p·2⁵³) in [1, 2⁵³-1] for p in (0,1); bernoulliNever and
	// bernoulliAlways mark the p ≤ 0 and p ≥ 1 cases, which draw nothing.
	thr uint64
}

const (
	bernoulliNever  = 0
	bernoulliAlways = 1 << 53
)

// NewBernoulli precomputes the threshold of Bool(p).  A NaN p never fires
// and draws nothing, like p ≤ 0 (Bool would draw once and return false).
func NewBernoulli(p float64) Bernoulli {
	switch {
	case p <= 0 || math.IsNaN(p):
		return Bernoulli{thr: bernoulliNever}
	case p >= 1:
		return Bernoulli{thr: bernoulliAlways}
	}
	return Bernoulli{thr: uint64(math.Ceil(p * (1 << 53)))}
}

// Bernoulli returns true with the probability b was built from.  It
// consumes the stream exactly as Bool(p) does and returns the same value.
func (s *Source) Bernoulli(b Bernoulli) bool {
	switch b.thr {
	case bernoulliNever:
		return false
	case bernoulliAlways:
		return true
	}
	return s.Uint64()>>11 < b.thr
}

// BernoulliLane draws the noise flips of one bit-sliced game lane: for each
// round r in order it draws the focal player's flip and then the
// opponent's, exactly as two Bernoulli(b) calls would, and ORs bit into
// flipA[r] and flipB[r] respectively when the draw fires.  flipA and flipB
// must have the same length.  The four state words stay in locals for the
// whole loop, so the lane costs 2·len(flipA) inlined generator steps and
// no branches on the drawn values.
func (s *Source) BernoulliLane(b Bernoulli, bit uint64, flipA, flipB []uint64) {
	flipB = flipB[:len(flipA)]
	switch b.thr {
	case bernoulliNever:
		return
	case bernoulliAlways:
		for r := range flipA {
			flipA[r] |= bit
			flipB[r] |= bit
		}
		return
	}
	thr := b.thr
	s0, s1, s2, s3 := s.s[0], s.s[1], s.s[2], s.s[3]
	var k uint64
	for r := range flipA {
		// Both k>>11 and thr are below 2⁶³, so their difference is a
		// negative int64 exactly when the draw fires, and its arithmetic
		// shift is then the all-ones mask.
		k, s0, s1, s2, s3 = next(s0, s1, s2, s3)
		flipA[r] |= bit & uint64(int64(k>>11-thr)>>63)
		k, s0, s1, s2, s3 = next(s0, s1, s2, s3)
		flipB[r] |= bit & uint64(int64(k>>11-thr)>>63)
	}
	s.s[0], s.s[1], s.s[2], s.s[3] = s0, s1, s2, s3
}

// Coin returns true with probability 1/2.
func (s *Source) Coin() bool {
	return s.Uint64()&1 == 1
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, generated with the polar (Marsaglia) method.
func (s *Source) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q == 0 || q >= 1 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(q)/q)
	}
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1.
func (s *Source) ExpFloat64() float64 {
	for {
		u := s.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a uniformly random permutation of [0, n) using Fisher-Yates.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle randomises the order of n elements using the provided swap
// function (Fisher-Yates).  It panics if n < 0.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	if n < 0 {
		panic("rng: Shuffle called with negative n")
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Pair returns two distinct indices drawn uniformly from [0, n).  It returns
// an error if n < 2 since no distinct pair exists.
func (s *Source) Pair(n int) (int, int, error) {
	if n < 2 {
		return 0, 0, errors.New("rng: Pair requires n >= 2")
	}
	a := s.Intn(n)
	b := s.Intn(n - 1)
	if b >= a {
		b++
	}
	return a, b, nil
}

// FillUint64 fills dst with uniformly distributed 64-bit values.
func (s *Source) FillUint64(dst []uint64) {
	for i := range dst {
		dst[i] = s.Uint64()
	}
}

// State returns a copy of the internal state, for checkpointing.
func (s *Source) State() [4]uint64 {
	return s.s
}

// SetState restores a state previously obtained from State.  It returns an
// error if the state is all zeros (invalid for xoshiro256**).
func (s *Source) SetState(state [4]uint64) error {
	if state[0]|state[1]|state[2]|state[3] == 0 {
		return errors.New("rng: all-zero state is invalid")
	}
	s.s = state
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler: the four state words
// in little-endian order, 32 bytes total.  Together with UnmarshalBinary it
// is the checkpoint subsystem's export/import path for RNG streams.
func (s *Source) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 32)
	for i, w := range s.s {
		binary.LittleEndian.PutUint64(buf[8*i:], w)
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, restoring a state
// previously produced by MarshalBinary.  It rejects malformed lengths and
// the all-zero state (invalid for xoshiro256**).
func (s *Source) UnmarshalBinary(data []byte) error {
	if len(data) != 32 {
		return fmt.Errorf("rng: state is %d bytes, want 32", len(data))
	}
	var state [4]uint64
	for i := range state {
		state[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	return s.SetState(state)
}

// Jump advances the generator by 2^128 steps, equivalent to calling Uint64
// 2^128 times.  It can be used to generate non-overlapping subsequences for
// parallel computations as an alternative to Split.
func (s *Source) Jump() {
	jump := [4]uint64{0x180EC6D33CFD0ABA, 0xD5A61266F0C9392C, 0xA9582618E03FC9AA, 0x39ABDC4529B1661C}
	var s0, s1, s2, s3 uint64
	for _, j := range jump {
		for b := 0; b < 64; b++ {
			if j&(1<<uint(b)) != 0 {
				s0 ^= s.s[0]
				s1 ^= s.s[1]
				s2 ^= s.s[2]
				s3 ^= s.s[3]
			}
			s.Uint64()
		}
	}
	s.s[0], s.s[1], s.s[2], s.s[3] = s0, s1, s2, s3
}
