// Package rng provides a small deterministic pseudo-random number generator
// used throughout the SHATTER reproduction so that every dataset, experiment,
// and test is exactly reproducible from a seed, independent of math/rand
// version changes or global state.
//
// The generator is splitmix64 for seeding feeding xoshiro256** for the
// stream; both are public-domain algorithms with excellent statistical
// quality for simulation workloads (this is NOT a cryptographic generator).
package rng

import "math"

// Source is a deterministic random source. The zero value is not valid; use
// New. Source is not safe for concurrent use; create one per goroutine.
type Source struct {
	state [4]uint64
}

// New returns a Source seeded from the given seed. Distinct seeds yield
// statistically independent streams.
func New(seed uint64) *Source {
	s := &Source{}
	// splitmix64 to spread the seed across the 256-bit state.
	x := seed
	for i := 0; i < 4; i++ {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		s.state[i] = z ^ (z >> 31)
	}
	return s
}

// Fork derives an independent child stream. The child's sequence does not
// overlap the parent's for any practical sample count, and the parent's
// stream advances by exactly one step, keeping replay deterministic.
func (s *Source) Fork() *Source {
	return New(s.Uint64())
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.state[1]*5, 7) * 9
	t := s.state[1] << 17
	s.state[2] ^= s.state[0]
	s.state[3] ^= s.state[1]
	s.state[1] ^= s.state[2]
	s.state[0] ^= s.state[3]
	s.state[2] ^= t
	s.state[3] = rotl(s.state[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, matching
// math/rand semantics for misuse during development.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Range returns a uniform float64 in [lo, hi).
func (s *Source) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Norm returns a normally distributed float64 with the given mean and
// standard deviation, using the Box-Muller transform.
func (s *Source) Norm(mean, stddev float64) float64 {
	// Avoid log(0).
	u1 := 1 - s.Float64()
	u2 := s.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * cos(2*math.Pi*u2)
	return mean + stddev*z
}

// cos returns math.Cos(x), bit for bit, for the angles Norm draws: x in
// [0, 2π). It performs math.Cos's floating-point operations in the same
// order but picks the octant's kernel and sign with integer masks, because
// for a uniform angle each of math.Cos's octant branches is a coin flip the
// CPU mispredicts. The equivalence, step by step:
//
//   - x is finite, non-negative and below 2^29, so math.Cos's NaN and
//     infinity case and its Abs change nothing, and it takes the three-part
//     Pi/4 reduction below, never the Payne-Hanek one.
//   - j = ⌊x·4/π⌋ is at most 8, so float64(j + j&1) equals math's
//     float64(j) followed by y++ on odd j, and z is math's z.
//   - After that mapping j is even, and j mod 8 alone picks the result:
//     math uses the sine kernel when j mod 8 is 2 or 6 (bit 1 of j), and
//     negates when it is 2 or 4 (bit 2 of j+2).
//   - Both kernels are math's expressions with math's coefficients, so the
//     selected one holds math's bits; flipping the sign bit is math's -y.
//
// TestCosMatchesMath and FuzzCos hold it to math.Cos.
func cos(x float64) float64 {
	const (
		pi4A = 7.85398125648498535156e-1  // 0x3fe921fb40000000, Pi/4 split into three parts
		pi4B = 3.77489470793079817668e-8  // 0x3e64442d00000000
		pi4C = 2.69515142907905952645e-15 // 0x3ce8469898cc5170

		// math's sine and cosine kernel coefficients (math/sin.go).
		sin0, sin1, sin2 = 1.58962301576546568060e-10, -2.50507477628578072866e-8, 2.75573136213857245213e-6
		sin3, sin4, sin5 = -1.98412698295895385996e-4, 8.33333333332211858878e-3, -1.66666666666666307295e-1
		cos0, cos1, cos2 = -1.13585365213876817300e-11, 2.08757008419747316778e-9, -2.75573141792967388112e-7
		cos3, cos4, cos5 = 2.48015872888517045348e-5, -1.38888888888730564116e-3, 4.16666666666665929218e-2
	)
	j := int64(x * (4 / math.Pi))
	j += j & 1
	y := float64(j)
	z := ((x - y*pi4A) - y*pi4B) - y*pi4C
	zz := z * z
	s := z + z*zz*((((((sin0*zz)+sin1)*zz+sin2)*zz+sin3)*zz+sin4)*zz+sin5)
	c := 1.0 - 0.5*zz + zz*zz*((((((cos0*zz)+cos1)*zz+cos2)*zz+cos3)*zz+cos4)*zz+cos5)
	useSin := uint64(-(j >> 1 & 1))
	neg := uint64((j+2)>>2&1) << 63
	return math.Float64frombits((math.Float64bits(s)&useSin | math.Float64bits(c)&^useSin) ^ neg)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// Perm returns a random permutation of [0, n) via Fisher-Yates.
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

// Shuffle shuffles the first n elements using the provided swap function.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}
