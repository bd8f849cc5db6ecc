// Tabulated stay-band oracle: the attack planner's DP issues its stay
// queries for one occupant over integer arrival slots of a single day, so
// the whole query surface flattens into per-(zone, arrival) arrays. A
// trained ADM builds the table once (NewStayBands, adm.Model.StayBands) and
// OptimizeWindowBands consumes it with direct array loads — no interface
// dispatch, no map lookups — and expands only the DP states a window
// reaches. Each zone's row stores only the span of arrival slots its
// intervals cover: an occupant's stays in a zone begin within a few hours
// of the day, and a zone the occupant never visited stores nothing.

package solver

import (
	"math"
	"slices"

	"github.com/acyd-lab/shatter/internal/home"
)

// StayBands is the flattened stay-band table for one occupant. Zone z's row
// holds one cell per arrival slot of its span, the slots from its first to
// its last covered arrival; the rows' cells lie back to back, and a cell
// answers the two Oracle queries:
//
//   - MaxStayAt: a cell is covered iff it holds a stay interval, and then
//     minStay/maxStay hold the integer bounds of the intervals' union.
//   - InRange: the per-hull stay intervals ivLo/ivHi[ivOff[c]:ivOff[c+1]],
//     needed because the union range may contain gaps between clusters.
//
// Arrivals outside a zone's span (those outside the day included) and zones
// beyond the table read as uncovered; the source model's out-of-day
// geometric fallback is intentionally not replicated — the planner's
// day-bounded windows never leave the day. NewStayBands builds the table;
// it is immutable after construction and safe for concurrent readers.
type StayBands struct {
	// rows[z] locates zone z's span among the cells.
	rows []bandRow
	// minStay and maxStay are each cell's integer stay bounds (0 when the
	// cell is uncovered), saturating at 65,535 minutes; a stay within a
	// day lasts at most 1,440.
	minStay, maxStay []uint16
	// ivOff/ivLo/ivHi store each cell's intervals contiguously: interval k
	// in [ivOff[c], ivOff[c+1]) spans [ivLo[k], ivHi[k]].
	ivOff      []int32
	ivLo, ivHi []float64
	// tol is the boundary tolerance of the interval membership test,
	// mirroring the source model's geometry predicates.
	tol float64
}

// bandRow is one zone's span of arrival slots [lo, hi) and the cell index
// of its arrival 0, so arrival a in the span is cell base+a. A zone without
// an interval has the empty span lo == hi == 0.
type bandRow struct{ base, lo, hi int }

// NewStayBands tabulates one occupant's stay oracle over zones zones and
// the arrival slots [0, slots). intervals(z, add) reports zone z's stay
// intervals by calling add(arrival, lo, hi) once per interval: a stay of y
// minutes after arriving at that slot is stealthy when lo−tol ≤ y ≤ hi+tol.
// A cell may take several intervals, one per cluster, kept in the order
// reported; its stay bounds are IntegerStayRange of their union, and a
// cell that takes none is uncovered. Arrivals outside [0, slots) are
// dropped.
func NewStayBands(zones, slots int, tol float64, intervals func(z home.ZoneID, add func(arrival int, lo, hi float64))) *StayBands {
	type interval struct{ lo, hi float64 }
	b := &StayBands{rows: make([]bandRow, zones), tol: tol}
	perSlot := make([][]interval, slots) // one zone's intervals per arrival slot
	// The table is built in scratch with room for a whole row, then copied
	// to its exact size.
	ivs := make([]interval, 0, slots) // every cell's intervals, in cell order
	minStay, maxStay := make([]uint16, 0, slots), make([]uint16, 0, slots)
	ivOff := append(make([]int32, 0, slots+1), 0)
	for z := range b.rows {
		lo, hi := slots, 0
		intervals(home.ZoneID(z), func(arrival int, l, h float64) {
			if arrival < 0 || arrival >= slots {
				return
			}
			perSlot[arrival] = append(perSlot[arrival], interval{l, h})
			lo, hi = min(lo, arrival), max(hi, arrival+1)
		})
		if lo >= hi {
			continue // no interval: the row stays empty
		}
		b.rows[z] = bandRow{base: len(minStay) - lo, lo: lo, hi: hi}
		for t := lo; t < hi; t++ {
			cell := perSlot[t]
			var minS, maxS int
			if len(cell) > 0 {
				l, h := math.Inf(1), math.Inf(-1)
				for _, iv := range cell {
					l = math.Min(l, iv.lo)
					h = math.Max(h, iv.hi)
				}
				minS, maxS = IntegerStayRange(l, h)
			}
			minStay = append(minStay, uint16(min(minS, math.MaxUint16)))
			maxStay = append(maxStay, uint16(min(maxS, math.MaxUint16)))
			ivs = append(ivs, cell...)
			ivOff = append(ivOff, int32(len(ivs)))
			perSlot[t] = cell[:0]
		}
	}
	b.minStay, b.maxStay, b.ivOff = slices.Clone(minStay), slices.Clone(maxStay), slices.Clone(ivOff)
	b.ivLo = make([]float64, len(ivs))
	b.ivHi = make([]float64, len(ivs))
	for k, iv := range ivs {
		b.ivLo[k], b.ivHi[k] = iv.lo, iv.hi
	}
	return b
}

// IntegerStayRange converts a real stay interval to the integer [min, max]
// stay range it allows: boundary-tolerant rounding, clamped to
// non-negative durations. It is the one rounding rule for stay bounds,
// shared by the table and the hull geometry it tabulates.
func IntegerStayRange(lo, hi float64) (minStay, maxStay int) {
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

// row returns zone z's span; zones beyond the table have an empty one.
func (b *StayBands) row(z home.ZoneID) bandRow {
	if z < 0 || int(z) >= len(b.rows) {
		return bandRow{}
	}
	return b.rows[z]
}

// cell resolves a (zone, arrival) query to its cell; -1 when the arrival
// lies outside the zone's span.
func (b *StayBands) cell(z home.ZoneID, arrival int) int {
	if r := b.row(z); arrival >= r.lo && arrival < r.hi {
		return r.base + arrival
	}
	return -1
}

// covered reports whether cell c holds a stay interval.
func (b *StayBands) covered(c int) bool { return b.ivOff[c] < b.ivOff[c+1] }

// StayRangeAt mirrors adm.Model.StayRange for the table's occupant: the
// integer bounds of the stealthy stays after the arrival, ok=false when no
// interval covers it.
func (b *StayBands) StayRangeAt(z home.ZoneID, arrival int) (minStay, maxStay int, ok bool) {
	c := b.cell(z, arrival)
	if c < 0 || !b.covered(c) {
		return 0, 0, false
	}
	return int(b.minStay[c]), int(b.maxStay[c]), true
}

// MaxStayAt mirrors Oracle.MaxStay for the table's occupant.
func (b *StayBands) MaxStayAt(z home.ZoneID, arrival int) (int, bool) {
	_, maxStay, ok := b.StayRangeAt(z, arrival)
	return maxStay, ok
}

// MinStayAt mirrors adm.Model.MinStay (Algorithm 1's threshold).
func (b *StayBands) MinStayAt(z home.ZoneID, arrival int) (int, bool) {
	minStay, _, ok := b.StayRangeAt(z, arrival)
	return minStay, ok
}

// InRange mirrors Oracle.InRangeStay: whether exiting after stay minutes is
// stealthy for the arrival, gap-aware across the cell's hull intervals.
func (b *StayBands) InRange(z home.ZoneID, arrival, stay int) bool {
	c := b.cell(z, arrival)
	return c >= 0 && b.inRangeCell(c, stay)
}

func (b *StayBands) inRangeCell(c, stay int) bool {
	y := float64(stay)
	for k := b.ivOff[c]; k < b.ivOff[c+1]; k++ {
		if y >= b.ivLo[k]-b.tol && y <= b.ivHi[k]+b.tol {
			return true
		}
	}
	return false
}

// OptimizeWindowBands solves the window with the same exact dynamic program
// as OptimizeWindowWS but reads the tabulated oracle directly and expands
// only live states, kept per layer in a frontier in the dense scan's
// ascending (zone, arrival) order, so every relaxation, tie-break, terminal
// choice and node count is the same. The forward pass mirrors
// OptimizeWindowWS statement for statement with every oracle call replaced
// by an array load, and cross-validation tests lock the two together.
// Arrivals outside a zone's span read as uncovered, as the Oracle reads
// them.
func OptimizeWindowBands(ws *Workspace, w Window, bands *StayBands, cost CostFn, allowed AllowedFn) (Schedule, Stats, error) {
	var d dp
	if err := d.start(ws, w); err != nil {
		return Schedule{}, Stats{}, err
	}
	var st Stats

	ivOff, maxStay := bands.ivOff, bands.maxStay
	// rows[z] is the table row of w.Zones[z]; zones beyond the table get an
	// empty span (always uncovered).
	rows := ws.bandRowsBuf(d.nZ)
	for z, zone := range w.Zones {
		rows[z] = bands.row(zone)
	}
	bandCell := func(z, arrival int) int {
		if r := &rows[z]; arrival >= r.lo && arrival < r.hi {
			return r.base + arrival
		}
		return -1
	}

	// startLenient: see OptimizeWindowWS.
	startCovered := false
	if c := bands.cell(w.StartZone, w.StartArrival); c >= 0 {
		startCovered = bands.covered(c)
	}

	layer := d.nZ * d.nA
	front, next := ws.frontiers(layer)
	front = append(front, int32(d.startZI*d.nA))
	for t := 0; t < w.Length; t++ {
		abs := w.StartSlot + t
		base, nextBase := t*layer, (t+1)*layer
		next = next[:0]
		for _, cell := range front {
			z, a := int(cell)/d.nA, int(cell)%d.nA
			v := ws.value[base+int(cell)]
			st.NodesExpanded++
			zone := w.Zones[z]
			arr := d.arrivalSlot(a)
			dur := abs - arr // completed stay so far
			c := bandCell(z, arr)
			// Action 1: stay for slot t (new duration dur+1).
			canStay := false
			switch {
			case c >= 0 && ivOff[c] < ivOff[c+1]:
				canStay = dur+1 <= int(maxStay[c])
			case z == d.startZI && a == 0 && !startCovered:
				canStay = true // lenient inherited stay
			}
			if canStay && allowed(abs, zone) {
				// A stay keeps the cell, and no other cell stays into it:
				// its successor is unset and goes live here, in ascending
				// order.
				ws.set(nextBase+int(cell), v+cost(abs, zone), d.encode(z, a, actStay))
				next = append(next, cell)
			}
			// Action 2: exit now (stay = dur) and occupy z' for slot t.
			exitOK := c >= 0 && bands.inRangeCell(c, dur)
			if z == d.startZI && a == 0 && !startCovered {
				exitOK = true
			}
			if !exitOK || dur < 1 {
				continue
			}
			for z2 := 0; z2 < d.nZ; z2++ {
				if z2 == z {
					continue
				}
				zone2 := w.Zones[z2]
				if !allowed(abs, zone2) {
					continue
				}
				// The new arrival must have cluster coverage so the
				// occupant can eventually exit stealthily.
				if c2 := bandCell(z2, abs); c2 < 0 || ivOff[c2] == ivOff[c2+1] {
					continue
				}
				aIdx := t + 1 // arrival at abs
				ws.relax(d.idx(t+1, z2, aIdx), v+cost(abs, zone2), d.encode(z, a, actMove))
			}
		}
		// next holds layer t+1's stayed cells in ascending order. A move
		// lands on (z2, t+1), the last cell of zone z2's row; merge those
		// in so the next layer expands in the dense scan's order and ties
		// resolve the same way.
		front = front[:0]
		k := 0
		for z := 0; z < d.nZ; z++ {
			arrived := int32(z*d.nA + t + 1)
			for ; k < len(next) && next[k] < arrived; k++ {
				front = append(front, next[k])
			}
			if ws.live(nextBase + int(arrived)) {
				front = append(front, arrived)
			}
		}
	}
	return d.finish(st, front)
}
