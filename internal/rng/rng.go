// Package rng provides deterministic random number generation for the
// reproduction harness. Every stochastic component in the repository — weight
// initialization, synthetic dataset rendering, fault injection, test-pattern
// seeding — draws from an explicitly seeded RNG so that experiments are
// bit-reproducible across runs and machines.
package rng

import (
	"math"
	"math/rand"
)

// RNG is a deterministic pseudo-random source with the distribution helpers
// the fault models need. It is NOT safe for concurrent use; derive one per
// goroutine with Split.
type RNG struct {
	src *rand.Rand
}

// New returns an RNG seeded with seed.
func New(seed int64) *RNG {
	return &RNG{src: rand.New(rand.NewSource(seed))}
}

// Split derives a new, statistically independent RNG from this one. The
// derived stream is a pure function of the parent's current state, so a fixed
// sequence of Split calls always yields the same child streams.
func (r *RNG) Split() *RNG {
	return New(r.src.Int63())
}

// Int63 returns a non-negative 63-bit integer.
func (r *RNG) Int63() int64 { return r.src.Int63() }

// Intn returns a uniform integer in [0, n).
func (r *RNG) Intn(n int) int { return r.src.Intn(n) }

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// Uniform returns a uniform sample in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.src.Float64()
}

// Normal returns a Gaussian sample with the given mean and standard
// deviation.
func (r *RNG) Normal(mean, std float64) float64 {
	return mean + std*r.src.NormFloat64()
}

// LogNormal returns exp(N(mu, sigma^2)). With mu=0 this is the multiplicative
// programming-error factor e^theta used by the paper's ReRAM variation model.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.src.Float64() < p
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// Shuffle permutes the integers in s in place.
func (r *RNG) Shuffle(s []int) {
	r.src.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
}

// FillNormal fills dst with independent Gaussian samples.
func (r *RNG) FillNormal(dst []float64, mean, std float64) {
	for i := range dst {
		dst[i] = r.Normal(mean, std)
	}
}

// FillUniform fills dst with independent uniform samples in [lo, hi).
func (r *RNG) FillUniform(dst []float64, lo, hi float64) {
	for i := range dst {
		dst[i] = r.Uniform(lo, hi)
	}
}
