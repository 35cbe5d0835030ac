// Package rng provides small, deterministic pseudo-random number generators
// and distribution samplers used throughout decaynet.
//
// All stochastic components of the library take explicit seeds so that
// experiments, tests and benchmarks are reproducible bit-for-bit. The
// generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): tiny state,
// excellent statistical quality for simulation workloads, and trivially
// splittable, which lets us derive independent per-pair streams for
// shadowing fields without storing per-pair state.
package rng

import "math"

// Source is a deterministic SplitMix64 pseudo-random generator.
// The zero value is a valid generator seeded with 0.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Seed resets the receiver to the stream New(seed) would produce. It lets
// hot loops reuse one Source across many deterministic sub-streams instead
// of allocating a fresh generator per stream.
func (s *Source) Seed(seed uint64) {
	s.state = seed
}

// mix is the SplitMix64 output function applied to z.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix(s.state)
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, matching the
// contract of math/rand.Intn.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Multiply-shift rejection-free bound; bias is < 2^-32 for n < 2^32,
	// negligible for simulation purposes.
	return int((s.Uint64() >> 33) % uint64(n))
}

// Range returns a uniform float64 in [lo, hi).
func (s *Source) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Split returns a new Source whose stream is statistically independent of
// the receiver's. It advances the receiver.
func (s *Source) Split() *Source {
	return &Source{state: mix(s.Uint64())}
}

// Normal returns a standard normal sample via the Box-Muller transform.
func (s *Source) Normal() float64 {
	// Draw u1 in (0,1] to avoid log(0).
	u1 := 1 - s.Float64()
	u2 := s.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// LogNormal returns a sample of exp(N(mu, sigma^2)).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.Normal())
}

// Rayleigh returns a Rayleigh(sigma) sample (magnitude of a complex
// circularly-symmetric Gaussian), used for small-scale fading snapshots.
func (s *Source) Rayleigh(sigma float64) float64 {
	u := 1 - s.Float64()
	return sigma * math.Sqrt(-2*math.Log(u))
}

// Exp returns an exponential sample with rate lambda.
func (s *Source) Exp(lambda float64) float64 {
	u := 1 - s.Float64()
	return -math.Log(u) / lambda
}

// Gamma returns a Gamma(shape, scale) sample (mean shape·scale) via the
// Marsaglia-Tsang squeeze method, with the standard shape<1 boost
// Gamma(a) = Gamma(a+1)·U^(1/a). Used for bursty interarrival mixes whose
// coefficient of variation differs from the exponential's.
func (s *Source) Gamma(shape, scale float64) float64 {
	if shape < 1 {
		u := 1 - s.Float64() // (0,1]: keeps the boost factor finite
		return s.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := s.Normal()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := 1 - s.Float64()
		if math.Log(u) < 0.5*x*x+d-d*v+d*math.Log(v) {
			return d * v * scale
		}
	}
}

// Weibull returns a Weibull(shape, scale) sample by inversion:
// scale · (−ln U)^(1/shape). shape < 1 gives heavy-tailed interarrivals,
// shape > 1 regular ones; shape = 1 is Exp(1/scale).
func (s *Source) Weibull(shape, scale float64) float64 {
	u := 1 - s.Float64()
	return scale * math.Pow(-math.Log(u), 1/shape)
}

// Perm returns a uniform random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the n elements addressed by swap uniformly at random.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// PairStream returns a Source deterministically derived from (seed, i, j).
// It is used to attach reproducible randomness (e.g. shadowing) to ordered
// node pairs without storing per-pair state: the same (seed, i, j) always
// yields the same stream, and distinct pairs yield independent streams.
// The Source is returned by value so per-pair draws in hot loops stay on
// the stack; callers that keep a stream take its address.
func PairStream(seed uint64, i, j int) Source {
	h := seed
	h = mix(h ^ (uint64(uint32(i)) + 0x9e3779b97f4a7c15))
	h = mix(h ^ (uint64(uint32(j)) + 0x7f4a7c159e3779b9))
	return Source{state: h}
}

// SymmetricPairStream is PairStream with (i, j) ordered canonically so that
// (i, j) and (j, i) share a stream. Used for reciprocal channel effects.
func SymmetricPairStream(seed uint64, i, j int) Source {
	if j < i {
		i, j = j, i
	}
	return PairStream(seed, i, j)
}
