package attack

import (
	"math"
	"testing"

	"github.com/acyd-lab/shatter/internal/adm"
	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/hvac"
	"github.com/acyd-lab/shatter/internal/scenario"
)

// synthTrace generates a procedural home's trace for the planner tests.
func synthTrace(tb testing.TB, sp scenario.Spec, days int) *aras.Trace {
	tb.Helper()
	tr, err := sp.Generate(days, 4242)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// TestCostTableMatchesSlotCost checks the occupant-day cost surface cell by
// cell, with bit equality, against hvac's per-call OccupantSlotCost (itself
// locked to the per-slot reference arithmetic in hvac's tests) under the
// surrogate's activity rule: the occupant's actual activity where the
// cell's zone is the actual zone, else the zone's most intense activity.
// One worker's surface serves consecutive occupant-days of houses whose
// zone counts grow and shrink, so stale cells from an earlier occupant-day
// or a larger house must never leak. Cells are read in forward and in
// reverse slot order, first on cold cells and then on computed ones, and
// reads outside the day or the house must cost 0. CostFnFor must serve the
// same surface.
func TestCostTableMatchesSlotCost(t *testing.T) {
	fleet := scenario.SynthFleet(6, 1)
	var st planScratch
	for _, sp := range []scenario.Spec{fleet[3], fleet[5], fleet[4]} {
		tr := synthTrace(t, sp, 2)
		h := tr.House
		pl := &Planner{Trace: tr, Cost: hvac.NewCostModel(h, hvac.DefaultParams(), hvac.DefaultPricing())}
		for d := range tr.Days {
			for o := range h.Occupants {
				want := func(slot int, z home.ZoneID) float64 {
					a := h.MostIntenseActivity(z)
					if tr.Days[d].Zone[o][slot] == z {
						a = tr.Days[d].Act[o][slot]
					}
					return pl.Cost.OccupantSlotCost(o, z, a, slot, tr.Weather[d].TempF[slot])
				}
				cost := pl.surfaceFor(&st.cost, d, o)
				fresh := pl.CostFnFor(d, o)
				for pass, reverse := range []bool{(d+o)%2 == 1, (d+o)%2 == 0} {
					for i := 0; i < aras.SlotsPerDay; i++ {
						slot := i
						if reverse {
							slot = aras.SlotsPerDay - 1 - i
						}
						for _, zone := range h.Zones {
							z, w := zone.ID, want(slot, zone.ID)
							if got := cost(slot, z); math.Float64bits(got) != math.Float64bits(w) {
								t.Fatalf("%s day %d occupant %d zone %d slot %d pass %d: surface %v, OccupantSlotCost %v", sp.ID, d, o, z, slot, pass, got, w)
							}
							if got := fresh(slot, z); math.Float64bits(got) != math.Float64bits(w) {
								t.Fatalf("%s day %d occupant %d zone %d slot %d pass %d: CostFnFor %v, OccupantSlotCost %v", sp.ID, d, o, z, slot, pass, got, w)
							}
						}
					}
				}
				for _, fn := range []func(int, home.ZoneID) float64{cost, fresh} {
					for _, zone := range h.Zones {
						for _, slot := range []int{-1, aras.SlotsPerDay} {
							if got := fn(slot, zone.ID); got != 0 {
								t.Fatalf("%s zone %d slot %d: out-of-day read costs %v, want 0", sp.ID, zone.ID, slot, got)
							}
						}
					}
					for _, z := range []home.ZoneID{-1, home.ZoneID(len(h.Zones))} {
						if got := fn(0, z); got != 0 {
							t.Fatalf("%s zone %d: out-of-house read costs %v, want 0", sp.ID, z, got)
						}
					}
				}
			}
		}
	}
}

// TestCostSurfaceEpochWrap forces the surface's uint32 epoch to wrap and
// checks the stamps are cleared rather than serving the cells of the
// occupant-day read just before the wrap.
func TestCostSurfaceEpochWrap(t *testing.T) {
	tr := synthTrace(t, scenario.Synth(6, 2, 1), 2)
	h := tr.House
	pl := &Planner{Trace: tr, Cost: hvac.NewCostModel(h, hvac.DefaultParams(), hvac.DefaultPricing())}
	var s costSurface
	before := pl.surfaceFor(&s, 0, 0) // epoch 1
	for slot := 0; slot < aras.SlotsPerDay; slot++ {
		for _, zone := range h.Zones {
			before(slot, zone.ID)
		}
	}
	s.epoch = ^uint32(0)
	got := pl.surfaceFor(&s, 1, 1) // wraps back to epoch 1
	want := pl.CostFnFor(1, 1)
	for slot := 0; slot < aras.SlotsPerDay; slot++ {
		for _, zone := range h.Zones {
			if g, w := got(slot, zone.ID), want(slot, zone.ID); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("zone %d slot %d after wrap: %v, want %v", zone.ID, slot, g, w)
			}
		}
	}
}

// TestAllowedForMatchesCanReport checks the resolved capability view
// against Capability.CanReport for every (slot, zone) of every
// occupant-day, across capability shapes and across houses of different
// zone counts sharing one worker scratch.
func TestAllowedForMatchesCanReport(t *testing.T) {
	var st planScratch
	for _, tr := range []*aras.Trace{
		synthTrace(t, scenario.Synth(9, 3, 1), 2),
		synthTrace(t, scenario.Synth(4, 2, 1), 1),
	} {
		h := tr.House
		everyThird := Full(h)
		everyThird.SlotAllowed = func(slot int) bool { return slot%3 != 0 }
		for _, tc := range []struct {
			name string
			cap  Capability
		}{
			{"full", Full(h)},
			{"zones", Full(h).WithZones(home.Bedroom, home.Kitchen)},
			{"occupants", Full(h).WithOccupants(1)},
			{"slots", everyThird},
			{"empty", Capability{}},
		} {
			pl := &Planner{Trace: tr, Cap: tc.cap}
			for d := range tr.Days {
				for o := range h.Occupants {
					allowed := pl.allowedFor(&st, d, o)
					for slot := 0; slot < aras.SlotsPerDay; slot++ {
						actual := tr.Days[d].Zone[o][slot]
						for _, zone := range h.Zones {
							if got, want := allowed(slot, zone.ID), tc.cap.CanReport(o, slot, actual, zone.ID); got != want {
								t.Fatalf("%s %s: day %d occupant %d slot %d %v→%v: allowedFor %v, CanReport %v",
									h.Name, tc.name, d, o, slot, actual, zone.ID, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkPlanSHATTER plans cold SHATTER campaigns, one per home of a
// 24-home SynthFleet over 12 days, against a DBSCAN defender trained on
// the first 9 days as the scenario sweep trains it. Planning is
// sequential (Workers=1).
func BenchmarkPlanSHATTER(b *testing.B) {
	const days, trainDays = 12, 9
	var planners []*Planner
	for _, sp := range scenario.SynthFleet(24, 1) {
		tr := synthTrace(b, sp, days)
		train, err := tr.SubTrace(0, trainDays)
		if err != nil {
			b.Fatal(err)
		}
		cfg := adm.DefaultConfig(adm.DBSCAN)
		cfg.MinPts = max(3, trainDays/5)
		cfg.Eps = 30
		model, err := adm.Train(train, cfg)
		if err != nil {
			b.Fatal(err)
		}
		pricing := hvac.DefaultPricing()
		if sp.Pricing != nil {
			pricing = *sp.Pricing
		}
		planners = append(planners, &Planner{
			Trace:     tr,
			Model:     model,
			Cost:      hvac.NewCostModel(tr.House, hvac.DefaultParams(), pricing),
			Cap:       Full(tr.House),
			WindowLen: 10,
			Workers:   1,
		})
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, pl := range planners {
			if _, err := pl.PlanSHATTER(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
