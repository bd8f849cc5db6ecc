// Stay bands: the attack solver issues millions of MaxStay/InRangeStay
// oracle queries per planning run, all with integer arrival slots in
// [0, SlotsPerDay). Because a convex hull's intersection with the vertical
// line x = arrival is a single y-interval, the whole query surface can be
// tabulated once at training time — per (zone, arrival slot) a covered
// flag, the integer [minStay, maxStay] union bounds, and the per-hull
// y-intervals needed for gap-aware InRangeStay checks — into one
// solver.StayBands per occupant. That table is the Model's only copy of the
// surface: the planner's DP reads it directly, and the Model's own queries
// read it for in-day arrivals. Queries then cost an array load instead of
// per-edge geometry.

package adm

import (
	"math"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/geometry"
	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/solver"
)

// stayTol mirrors the geometry predicates' boundary tolerance. Training
// points are integral, so hull boundaries at integer x are rationals with
// denominator ≤ SlotsPerDay; any tolerance ≪ 1/SlotsPerDay² preserves the
// exact membership decisions of the hull tests for integer stays.
const stayTol = 1e-9

// stayInterval is one hull's stealthy-stay band at a fixed arrival slot.
type stayInterval struct{ lo, hi float64 }

// buildStayBands tabulates one occupant's hulls over the house's nz zones
// via the allocation-free geometry.Hull.ScanYRangesAtIntegerX walk, which
// matches YRangeAtX / Contains semantics exactly for integer queries. A
// zone never visited in training gets an uncovered row.
func buildStayBands(hulls map[key][]geometry.Hull, occupant, nz int) *solver.StayBands {
	const s = aras.SlotsPerDay
	b := &solver.StayBands{
		Slots:   s,
		Covered: make([]bool, nz*s),
		MinStay: make([]int32, nz*s),
		MaxStay: make([]int32, nz*s),
		IvOff:   make([]int32, nz*s+1),
		Tol:     stayTol,
	}
	var ivs []stayInterval               // every cell's intervals, in cell order
	perSlot := make([][]stayInterval, s) // one zone's intervals per arrival slot
	for z := 0; z < nz; z++ {
		for t := range perSlot {
			perSlot[t] = perSlot[t][:0]
		}
		for _, h := range hulls[key{occupant: occupant, zone: home.ZoneID(z)}] {
			h.ScanYRangesAtIntegerX(0, s-1, func(slot int, lo, hi float64) {
				perSlot[slot] = append(perSlot[slot], stayInterval{lo, hi})
			})
		}
		for t, cell := range perSlot {
			c := z*s + t
			b.IvOff[c] = int32(len(ivs))
			if len(cell) == 0 {
				continue
			}
			ivs = append(ivs, cell...)
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, iv := range cell {
				lo = math.Min(lo, iv.lo)
				hi = math.Max(hi, iv.hi)
			}
			minS, maxS := clampStayRange(lo, hi)
			b.Covered[c] = true
			b.MinStay[c], b.MaxStay[c] = int32(minS), int32(maxS)
		}
	}
	b.IvOff[nz*s] = int32(len(ivs))
	b.IvLo = make([]float64, len(ivs))
	b.IvHi = make([]float64, len(ivs))
	for k, iv := range ivs {
		b.IvLo[k], b.IvHi[k] = iv.lo, iv.hi
	}
	return b
}

// clampStayRange converts a real stay interval to the integer [min, max]
// StayRange reports: boundary-tolerant rounding, clamped to non-negative
// durations. Shared by the table build and the geometric fallback.
func clampStayRange(lo, hi float64) (minStay, maxStay int) {
	minStay = int(math.Ceil(lo - 1e-9))
	maxStay = int(math.Floor(hi + 1e-9))
	if minStay < 0 {
		minStay = 0
	}
	if maxStay < minStay {
		maxStay = minStay
	}
	return minStay, maxStay
}

// StayBands returns the occupant's stay table — the tabulated oracle
// solver.OptimizeWindowBands consumes directly on the attack planner's hot
// path, and the one the Model's own queries read, so for every arrival
// slot in [0, aras.SlotsPerDay) its answers are the Model's. It is
// immutable and safe for concurrent readers. Returns nil for unknown
// occupants.
func (m *Model) StayBands(occupant int) *solver.StayBands {
	if occupant < 0 || occupant >= len(m.bands) {
		return nil
	}
	return m.bands[occupant]
}
