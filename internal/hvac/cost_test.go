package hvac_test

import (
	"math"
	"testing"

	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/hvac"
	"github.com/acyd-lab/shatter/internal/scenario"
)

// TestOccupantSlotCostMatchesReference locks the hoisted surrogate kernel to
// the per-slot reference arithmetic with bit equality, not a tolerance:
// one OccupantLoad per (occupant, zone, activity) is evaluated across
// outdoor temperatures below, at and above the setpoint and across peak
// and off-peak slots, as the planner's cost tables do, on houses A and B
// and every SynthFleet(24, 1) house. The activities are the 27 ARAS ones
// plus an id outside them (ActivityByID's fallback profile).
func TestOccupantSlotCostMatchesReference(t *testing.T) {
	houses := []*home.House{home.MustHouse("A"), home.MustHouse("B")}
	for _, sp := range scenario.SynthFleet(24, 1) {
		h, err := sp.Build()
		if err != nil {
			t.Fatal(err)
		}
		houses = append(houses, h)
	}
	params := hvac.DefaultParams()
	pricing := hvac.DefaultPricing()
	temps := []float64{61.3, params.ZoneSetpointF, 72.5, 94.8}
	slots := []int{0, 12 * 60, pricing.PeakStartSlot, 18 * 60, pricing.PeakEndSlot - 1, pricing.PeakEndSlot, 23*60 + 59}
	for _, h := range houses {
		m := hvac.NewCostModel(h, params, pricing)
		for o := range h.Occupants {
			for _, zone := range h.Zones {
				z := zone.ID
				for act := home.ActivityID(0); act <= home.NumActivities; act++ {
					load := m.OccupantLoad(o, z, act)
					for _, outF := range temps {
						for _, slot := range slots {
							want := hvac.ReferenceOccupantSlotCost(m, o, z, act, slot, outF)
							hoisted := m.SlotCost(&load, slot, outF)
							direct := m.OccupantSlotCost(o, z, act, slot, outF)
							if math.Float64bits(hoisted) != math.Float64bits(want) || math.Float64bits(direct) != math.Float64bits(want) {
								t.Fatalf("%s occupant %d zone %d act %d slot %d %.1f°F: hoisted %v, OccupantSlotCost %v, reference %v",
									h.Name, o, z, act, slot, outF, hoisted, direct, want)
							}
						}
					}
				}
			}
		}
	}
}
