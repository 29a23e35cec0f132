// Package stats provides deterministic random number generation,
// probability distributions, and summary statistics used throughout the
// spot-market simulator and the bidding framework.
//
// All randomness in the repository flows through stats.RNG so that every
// experiment is reproducible from a single seed, independent of the Go
// version's math/rand internals.
package stats

import "math"

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used only to expand a user seed into the xoshiro state.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RNG is a deterministic pseudo-random number generator based on
// xoshiro256** by Blackman and Vigna. It is NOT safe for concurrent use;
// create one RNG per goroutine.
type RNG struct {
	s [4]uint64
}

// NewRNG returns an RNG seeded from the given seed. Two RNGs constructed
// with the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// xoshiro must not start in the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
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

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("stats: Int63n called with n <= 0")
	}
	return int64(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// FalseRun makes up to n Bool(p) draws and returns how many came up
// false before the first true one, n when none did. It consumes exactly
// the draws the Bool calls would have, min(k+1, n) for a result k < n,
// and leaves the stream where they would have left it. Bool's test
// Float64() < p is the same as (Uint64()>>11) < ⌈p·2⁵³⌉, so the loop
// compares integers and runs Uint64's step inline with the state in
// locals: a long run of rare events costs a few instructions a draw.
func (r *RNG) FalseRun(p float64, n int64) int64 {
	var below uint64 // ⌈p·2⁵³⌉, clamped to [0, 2⁵³]
	switch {
	case p >= 1:
		below = 1 << 53
	case p > 0:
		below = uint64(math.Ceil(p * (1 << 53)))
	}
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	k := int64(0)
	for ; k < n; k++ {
		result := rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		if result>>11 < below {
			break
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return k
}

// NormFloat64 returns a normally distributed value with the given mean and
// standard deviation, using the Marsaglia polar method.
func (r *RNG) NormFloat64(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
	}
}

// LogNormFloat64 returns exp(N(mu, sigma)).
func (r *RNG) LogNormFloat64(mu, sigma float64) float64 {
	return math.Exp(r.NormFloat64(mu, sigma))
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
