// Tabulated stay-band oracle: the attack planner's DP issues its stay
// queries for one occupant over integer arrival slots of a single day, so
// the whole query surface flattens into per-(zone, arrival) arrays. A
// trained ADM exports the table once (adm.Model.StayBands) and
// OptimizeWindowBands consumes it with direct array loads — no interface
// dispatch, no map lookups — and expands only the DP states a window
// reaches.

package solver

import (
	"github.com/acyd-lab/shatter/internal/home"
)

// StayBands is the flattened stay-band table for one occupant. A cell
// c = int(zone)·Slots + arrival answers the two Oracle queries:
//
//   - MaxStayAt: Covered[c] plus the [MinStay[c], MaxStay[c]] union bounds.
//   - InRange: the per-hull stay intervals IvLo/IvHi[IvOff[c]:IvOff[c+1]],
//     needed because the union range may contain gaps between clusters.
//
// Arrivals outside [0, Slots) and zones beyond the table read as uncovered;
// the source model's out-of-day geometric fallback is intentionally not
// replicated — the planner's day-bounded windows never leave the table.
// A StayBands is immutable after construction and safe for concurrent
// readers.
type StayBands struct {
	// Slots is the number of tabulated arrival slots per day (table stride).
	Slots int
	// Covered[c] reports whether some cluster hull covers the cell's
	// arrival slot.
	Covered []bool
	// MinStay and MaxStay are the integer stay-range union bounds (valid
	// when covered).
	MinStay, MaxStay []int32
	// IvOff/IvLo/IvHi store each cell's hull stay intervals contiguously:
	// interval k in [IvOff[c], IvOff[c+1]) spans [IvLo[k], IvHi[k]].
	IvOff []int32
	IvLo  []float64
	IvHi  []float64
	// Tol is the boundary tolerance of the interval membership test,
	// mirroring the source model's geometry predicates.
	Tol float64
}

// Cell resolves a (zone, arrival) query to a table index; ok=false for
// queries outside the tabulated surface.
func (b *StayBands) Cell(z home.ZoneID, arrival int) (int, bool) {
	if arrival < 0 || arrival >= b.Slots || z < 0 {
		return 0, false
	}
	c := int(z)*b.Slots + arrival
	if c >= len(b.Covered) {
		return 0, false
	}
	return c, true
}

// MaxStayAt mirrors Oracle.MaxStay for the table's occupant.
func (b *StayBands) MaxStayAt(z home.ZoneID, arrival int) (int, bool) {
	c, ok := b.Cell(z, arrival)
	if !ok || !b.Covered[c] {
		return 0, false
	}
	return int(b.MaxStay[c]), true
}

// MinStayAt mirrors adm.Model.MinStay (Algorithm 1's threshold).
func (b *StayBands) MinStayAt(z home.ZoneID, arrival int) (int, bool) {
	c, ok := b.Cell(z, arrival)
	if !ok || !b.Covered[c] {
		return 0, false
	}
	return int(b.MinStay[c]), true
}

// InRange mirrors Oracle.InRangeStay: whether exiting after stay minutes is
// stealthy for the arrival, gap-aware across the cell's hull intervals.
func (b *StayBands) InRange(z home.ZoneID, arrival, stay int) bool {
	c, ok := b.Cell(z, arrival)
	if !ok {
		return false
	}
	return b.inRangeCell(c, stay)
}

func (b *StayBands) inRangeCell(c, stay int) bool {
	y := float64(stay)
	for k := b.IvOff[c]; k < b.IvOff[c+1]; k++ {
		if y >= b.IvLo[k]-b.Tol && y <= b.IvHi[k]+b.Tol {
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
// by an array load, and cross-validation tests lock the two together. All
// of the window's arrival slots must lie inside the table ([0,
// bands.Slots)), which holds for any day-bounded window.
func OptimizeWindowBands(ws *Workspace, w Window, bands *StayBands, cost CostFn, allowed AllowedFn) (Schedule, Stats, error) {
	var d dp
	if err := d.start(ws, w); err != nil {
		return Schedule{}, Stats{}, err
	}
	var st Stats

	stride := bands.Slots
	covered := bands.Covered
	maxStay := bands.MaxStay
	// zoneBase[z] is the table row of w.Zones[z]; -1 for zones beyond the
	// table (always uncovered).
	zoneBase := ws.zoneBaseBuf(d.nZ)
	for z, zone := range w.Zones {
		if zone < 0 || int(zone)*stride >= len(covered) {
			zoneBase[z] = -1
		} else {
			zoneBase[z] = int(zone) * stride
		}
	}
	bandCell := func(z, arrival int) int {
		if base := zoneBase[z]; base >= 0 && arrival >= 0 && arrival < stride {
			return base + arrival
		}
		return -1
	}

	// startLenient: see OptimizeWindowWS.
	startCovered := false
	if c, ok := bands.Cell(w.StartZone, w.StartArrival); ok {
		startCovered = covered[c]
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
			case c >= 0 && covered[c]:
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
				if c2 := bandCell(z2, abs); c2 < 0 || !covered[c2] {
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
