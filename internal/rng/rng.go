// Package rng provides a small, fast, deterministic pseudo-random number
// generator used by the synthetic workload models.
//
// The simulator must be a pure function of (configuration, workload, seed):
// experiments, tests and benchmarks all rely on bit-exact reproducibility, so
// nothing in this repository uses math/rand's global state or the wall clock.
// The generator is an xorshift64* stream, which is tiny, allocation-free and
// has more than enough statistical quality for workload synthesis.
package rng

// Source is a deterministic xorshift64* pseudo-random number generator.
// The zero value is not a valid source; use New or Seed.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed. Two sources with the same seed
// produce identical streams.
func New(seed uint64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed restarts s as New(seed) would. A zero seed is remapped to a fixed
// non-zero constant because xorshift has an all-zero fixed point.
func (s *Source) Seed(seed uint64) {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	s.state = seed
	// Warm up so that trivially related seeds (1, 2, 3...) decorrelate.
	for i := 0; i < 4; i++ {
		s.Uint64()
	}
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	x := s.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	s.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Uint64n returns a pseudo-random uint64 in [0, n). It panics if n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	return s.Uint64() % n
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}
