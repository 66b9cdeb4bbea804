// Package rng provides a small, deterministic pseudo-random number
// generator used throughout the simulator.
//
// The simulator needs reproducible randomness: a broadcast run must be
// replayable from a single seed, and every node must own an independent
// stream derived from (master seed, node label) so that adding or removing
// nodes does not perturb the streams of the others. The standard library's
// math/rand does not guarantee a stable algorithm across Go releases, so we
// pin one: xoshiro256** (Blackman & Vigna), seeded through SplitMix64 as its
// authors recommend.
package rng

import "math/bits"

// Source is a deterministic xoshiro256** generator. The zero value is not
// usable; construct with New or NewFromState.
type Source struct {
	s0, s1, s2, s3 uint64
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used only for seeding, never for the main stream.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed via SplitMix64. Distinct seeds give
// independent-looking streams; the same seed always gives the same stream.
func New(seed uint64) *Source {
	var s Source
	s.Reseed(seed)
	return &s
}

// NewStream returns a Source for a substream identified by id, derived from
// the master seed. It mixes the id through SplitMix64 so that consecutive
// ids (node labels, trial indices) do not produce correlated streams.
func NewStream(seed, id uint64) *Source {
	s := Stream(seed, id)
	return &s
}

// Stream is NewStream by value: the same substream, for callers that keep
// many generators in one flat slice instead of one heap object each.
func Stream(seed, id uint64) Source {
	st := seed
	_ = splitMix64(&st) // decouple from New(seed)
	st ^= 0xd1342543de82ef95 * (id + 1)
	var s Source
	s.Reseed(splitMix64(&st))
	return s
}

// Reseed resets the generator state from seed.
func (s *Source) Reseed(seed uint64) {
	st := seed
	s.s0 = splitMix64(&st)
	s.s1 = splitMix64(&st)
	s.s2 = splitMix64(&st)
	s.s3 = splitMix64(&st)
	// xoshiro must not start in the all-zero state; SplitMix64 cannot emit
	// four consecutive zeros, but be defensive anyway.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 1
	}
}

// Uint64 returns the next 64 uniformly random bits.
func (s *Source) Uint64() uint64 {
	result := bits.RotateLeft64(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = bits.RotateLeft64(s.s3, 45)
	return result
}

// Intn returns a uniformly random int in [0, n). It panics if n <= 0, which
// always indicates a caller bug rather than a runtime condition.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0") //radiolint:ignore nopanic documented caller-bug contract, mirroring math/rand.Intn
	}
	return int(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly random uint64 in [0, n) using Lemire's
// nearly-divisionless method. It panics if n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0") //radiolint:ignore nopanic documented caller-bug contract, mirroring math/rand.Intn
	}
	hi, lo := bits.Mul64(s.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(s.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniformly random float64 in [0, 1) with 53 bits of
// precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability 1/2.
func (s *Source) Bool() bool {
	return s.Uint64()&1 == 1
}

// Bernoulli returns true with probability p. Values of p outside [0,1] are
// clamped: p <= 0 never fires, p >= 1 always fires.
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// CoinPow2 returns true with probability 2^-k for k >= 0, using k random
// bits directly instead of a float comparison. This is the transmission
// coin used by Decay-style ladders: exact for every k up to 64 and cheaper
// than Float64. For k > 64 it consumes two words.
func (s *Source) CoinPow2(k int) bool {
	if k <= 0 {
		return true
	}
	for k > 64 {
		if s.Uint64() != 0 {
			return false
		}
		k -= 64
	}
	return s.Uint64()&(1<<uint(k)-1) == 0
}

// Perm returns a uniformly random permutation of [0, n) as a slice.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle randomly permutes xs in place (Fisher–Yates).
func (s *Source) Shuffle(xs []int) {
	for i := len(xs) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// Sample returns k distinct values drawn uniformly from [0, n) in random
// order. It panics if k > n or k < 0.
func (s *Source) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Sample called with k out of range") //radiolint:ignore nopanic documented caller-bug contract, mirroring math/rand.Perm
	}
	// Floyd's algorithm: O(k) expected, no O(n) allocation.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := s.Intn(j + 1)
		if _, ok := chosen[t]; ok {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	s.Shuffle(out)
	return out
}

// Geometric returns the number of failures before the first success of a
// Bernoulli(p) process, i.e. a sample from the geometric distribution on
// {0,1,2,...}. p must be in (0, 1]; p >= 1 returns 0 and p <= 0 panics.
func (s *Source) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("rng: Geometric called with p <= 0") //radiolint:ignore nopanic documented caller-bug contract: p is validated by every in-repo caller
	}
	n := 0
	for !s.Bernoulli(p) {
		n++
	}
	return n
}

// State returns the four words of internal state, for checkpointing.
func (s *Source) State() [4]uint64 {
	return [4]uint64{s.s0, s.s1, s.s2, s.s3}
}

// NewFromState reconstructs a Source from a checkpointed state.
func NewFromState(st [4]uint64) *Source {
	if st[0]|st[1]|st[2]|st[3] == 0 {
		st[0] = 1
	}
	return &Source{s0: st[0], s1: st[1], s2: st[2], s3: st[3]}
}
