package attack

import (
	"github.com/acyd-lab/shatter/internal/adm"
	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/home"
)

// TriggerAppliances implements Algorithm 1 (Revised Appliance Triggering
// Decision): while the attack schedule reports an occupant freshly arrived
// in a zone — within the ADM's minimum stealthy stay for that arrival — and
// the zone is really unoccupied (Eq 16's stealthiness against occupants),
// the attacker voice-triggers the accessible appliances installed there.
// The triggered appliances really draw power and their status sensors read
// "on", so the controller also supplies extra cooling for their heat.
//
// It returns the number of appliance-slots triggered and mutates
// plan.Triggered in place, giving a day its grid when it marks the day's
// first trigger.
func TriggerAppliances(trace *aras.Trace, plan *Plan, model *adm.Model, cap Capability) int {
	if model == nil {
		return 0
	}
	total := 0
	for d := 0; d < trace.NumDays(); d++ {
		for o := range trace.House.Occupants {
			zones := plan.RepZone[d][o]
			arrival := 0
			thresh := 0
			for t := 0; t < aras.SlotsPerDay; t++ {
				if t == 0 || zones[t] != zones[t-1] {
					// Arrival event (E^A): refresh the stealthy-trigger
					// window from the ADM's minimum stay.
					arrival = t
					if mn, ok := model.MinStay(o, zones[t], t); ok {
						thresh = mn
					} else {
						thresh = 0
					}
				}
				zone := zones[t]
				if !zone.Conditioned() || t-arrival > thresh {
					continue
				}
				if zoneActuallyOccupied(trace, d, t, zone) {
					continue // an occupant would notice (Eq 16)
				}
				for _, ai := range trace.House.AppliancesInZone(zone) {
					if !cap.CanTrigger(ai, t) {
						continue
					}
					if aras.Bit(trace.Days[d].Appliance[ai], t) || plan.TriggeredAt(d, ai, t) {
						continue
					}
					if plan.Triggered[d] == nil {
						plan.Triggered[d] = aras.NewColumns(len(trace.House.Appliances))
					}
					aras.SetBit(plan.Triggered[d][ai], t, true)
					total++
				}
			}
		}
	}
	return total
}

// zoneActuallyOccupied reports whether any real occupant is in the zone.
func zoneActuallyOccupied(trace *aras.Trace, day, slot int, z home.ZoneID) bool {
	for o := range trace.Days[day].Zone {
		if trace.Days[day].Zone[o][slot] == z {
			return true
		}
	}
	return false
}
