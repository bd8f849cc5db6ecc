// Stay bands: the attack solver issues millions of MaxStay/InRangeStay
// oracle queries per planning run, all with integer arrival slots in
// [0, SlotsPerDay). Because a convex hull's intersection with the vertical
// line x = arrival is a single y-interval, the whole query surface can be
// tabulated once at training time — per (zone, arrival slot) the per-hull
// y-intervals needed for gap-aware InRangeStay checks and the integer
// [minStay, maxStay] bounds of their union, over the arrival span the
// hulls cover — into one solver.StayBands per occupant. That table is the
// Model's only copy of the surface: the planner's DP reads it directly,
// and the Model's own queries read it for in-day arrivals. Queries then
// cost an array load instead of per-edge geometry.

package adm

import (
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

// buildStayBands tabulates one occupant's hulls over the house's nz zones
// via the allocation-free geometry.Hull.ScanYRangesAtIntegerX walk, which
// matches YRangeAtX / Contains semantics exactly for integer queries. A
// zone never visited in training gets an empty row.
func buildStayBands(hulls map[key][]geometry.Hull, occupant, nz int) *solver.StayBands {
	const s = aras.SlotsPerDay
	return solver.NewStayBands(nz, s, stayTol, func(z home.ZoneID, add func(int, float64, float64)) {
		for _, h := range hulls[key{occupant: occupant, zone: z}] {
			h.ScanYRangesAtIntegerX(0, s-1, add)
		}
	})
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
