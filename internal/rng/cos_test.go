package rng

import (
	"math"
	"testing"
)

// angle is the argument Norm passes to cos for the uniform draw n/2^53,
// computed with Norm's operations.
func angle(n uint64) float64 { return 2 * math.Pi * (float64(n) / (1 << 53)) }

// octantEdges returns, for each k in 0..7, the least float64 x with
// ⌊x·4/π⌋ >= k: where math.Cos's octant index steps.
func octantEdges() []float64 {
	edges := make([]float64, 8)
	for k := range edges {
		// Non-negative floats order as their bits do.
		lo, hi := uint64(0), math.Float64bits(2*math.Pi)
		for lo < hi {
			mid := lo + (hi-lo)/2
			if int(math.Float64frombits(mid)*(4/math.Pi)) >= k {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		edges[k] = math.Float64frombits(lo)
	}
	return edges
}

// drawAtOrAbove returns the least n < 2^53 whose angle is at least x.
func drawAtOrAbove(x float64) uint64 {
	lo, hi := uint64(0), uint64(1<<53-1)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if angle(mid) >= x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func checkCos(t *testing.T, x float64) {
	t.Helper()
	if got, want := math.Float64bits(cos(x)), math.Float64bits(math.Cos(x)); got != want {
		t.Fatalf("cos(%v) = %#016x (%v), math.Cos = %#016x (%v)", x, got, cos(x), want, math.Cos(x))
	}
}

// TestCosMatchesMath holds Norm's branch-free cosine to math.Cos bit for
// bit: on 5 million angles drawn as Norm draws them, on the two ends of the
// domain, and on every float within 512 ulps of each octant edge, where
// the octant's kernel or sign changes.
func TestCosMatchesMath(t *testing.T) {
	r := New(33)
	for range 5_000_000 {
		checkCos(t, 2*math.Pi*r.Float64())
	}
	top := angle(1<<53 - 1)
	checkCos(t, angle(0))
	checkCos(t, top)
	if j := int(top * (4 / math.Pi)); j != 7 {
		t.Fatalf("largest angle in octant %d, want 7", j)
	}
	for k, e := range octantEdges() {
		// The edge lies within a few ulps of k·π/4.
		if d, ulp := math.Abs(e-float64(k)*(math.Pi/4)), math.Nextafter(e, 8)-e; d > 8*ulp {
			t.Fatalf("edge %d at %v, %v from k·π/4", k, e, d)
		}
		x := e
		for range 512 {
			if x = math.Nextafter(x, -1); x < 0 {
				break
			}
			checkCos(t, x)
		}
		x = e
		for range 513 {
			if x > top {
				break
			}
			checkCos(t, x)
			x = math.Nextafter(x, 8)
		}
	}
}

// FuzzCos compares the cosine with math.Cos on the angle Norm draws from
// the 64 random bits k. The seed corpus holds every octant edge's nearest
// draws and the draws k = m·2^61 (angle m·π/4).
func FuzzCos(f *testing.F) {
	for _, e := range octantEdges() {
		n := drawAtOrAbove(e)
		for _, m := range []uint64{n - 1, n, n + 1} {
			if m < 1<<53 {
				f.Add(m << 11)
			}
		}
	}
	for m := range uint64(8) {
		f.Add(m << 61)
	}
	f.Add(uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, k uint64) {
		checkCos(t, angle(k>>11))
	})
}
