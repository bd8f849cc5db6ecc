package stream

import (
	"errors"
	"fmt"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/hvac"
)

// This file holds the per-slot reference the day path is locked against.
// The runtime moves only day blocks; the equivalence tests drive a Home one
// slot at a time through slotHome.Ingest and compare it with IngestDay.

// Action is a controller's per-slot decision event: the airflow demands the
// supervisory controller issues to the zone actuators, with the slot's
// metered energy and cost.
type Action struct {
	Home    string
	Day     int
	Index   int
	Demands []hvac.Demand
	KWh     float64
	CostUSD float64
}

// SensorEvents counts the individual sensor measurements the slot carries
// (occupancy readings plus appliance statuses) — the unit the fleet
// throughput metrics report.
func (s *Slot) SensorEvents() int {
	return len(s.Reported) + len(s.ReportedAppliance)
}

// slotHome is the per-slot reference for a Home: it steps the δ^D rewrite
// and the plant one slot at a time, rebuilds the day's occupancy columns
// from the rewritten slots, and scores each rebuilt day at the day's last
// slot through IngestDay's own scoring code.
type slotHome struct {
	*Home
	day      DayBlock // rebuilt occupancy columns of the day in flight
	believed []hvac.OccupantObs
	actual   []hvac.OccupantObs
}

func newSlotHome(h *Home) *slotHome {
	occ := len(h.cfg.House.Occupants)
	r := &slotHome{
		Home:     h,
		believed: make([]hvac.OccupantObs, occ),
		actual:   make([]hvac.OccupantObs, occ),
	}
	r.day.ensure(occ, len(h.cfg.House.Appliances))
	return r
}

// Ingest advances the pipeline by one slot and returns the controller's
// action event for it (its Demands slice is controller scratch, valid until
// the next Ingest). Slots must arrive in stream order; the slot's (day,
// index) is cross-checked against the stepper's position so ordering bugs
// surface as errors, not silent divergence.
func (r *slotHome) Ingest(s *Slot) (Action, error) {
	h := r.Home
	if h.closed {
		return Action{}, errors.New("stream: Ingest after Close")
	}
	if s.Day != h.sim.Day() || s.Index != h.sim.SlotOfDay() {
		return Action{}, fmt.Errorf("stream: home %s: frame (%d,%d) arrived at stepper position (%d,%d)",
			h.cfg.ID, s.Day, s.Index, h.sim.Day(), h.sim.SlotOfDay())
	}
	occ, appl := len(r.actual), len(h.cfg.House.Appliances)
	if len(s.True) != occ || len(s.TrueAppliance) != appl ||
		len(s.Reported) != occ || len(s.ReportedAppliance) != appl {
		return Action{}, fmt.Errorf("stream: home %s: frame sized %dx%d (reported %dx%d), want %dx%d",
			h.cfg.ID, len(s.True), len(s.TrueAppliance), len(s.Reported), len(s.ReportedAppliance), occ, appl)
	}
	if h.cfg.Injector != nil {
		h.cfg.Injector.Rewrite(s)
	}
	t := s.Index
	r.day.Day = s.Day
	for o := range s.Reported {
		r.day.TrueZone[o][t], r.day.TrueAct[o][t] = s.True[o].Zone, s.True[o].Activity
		r.day.RepZone[o][t], r.day.RepAct[o][t] = s.Reported[o].Zone, s.Reported[o].Activity
		r.believed[o] = hvac.OccupantObs{Zone: s.Reported[o].Zone, Activity: s.Reported[o].Activity}
		r.actual[o] = hvac.OccupantObs{Zone: s.True[o].Zone, Activity: s.True[o].Activity}
	}
	rep := h.sim.Step(hvac.StepInput{
		OutdoorTempF:      s.OutdoorTempF,
		OutdoorCO2PPM:     s.OutdoorCO2PPM,
		Believed:          r.believed,
		BelievedAppliance: s.ReportedAppliance,
		ActualOccupants:   r.actual,
		ActualAppliance:   s.TrueAppliance,
	})
	if t == aras.SlotsPerDay-1 {
		if err := h.scoreDay(&r.day); err != nil {
			return Action{}, err
		}
	}
	if t == 0 {
		h.res.Days++
	}
	h.res.Slots++
	h.res.SensorEvents += int64(s.SensorEvents())
	h.res.ActionEvents += int64(len(rep.Demands))
	return Action{
		Home:    h.cfg.ID,
		Day:     rep.Day,
		Index:   rep.Slot,
		Demands: rep.Demands,
		KWh:     rep.KWh,
		CostUSD: rep.CostUSD,
	}, nil
}

// Rewrite falsifies one slot in place — the per-slot reference RewriteBlock
// is locked against. It evaluates attack.Plan.FalsifyDay's rule slot by
// slot: Reported takes the plan's occupancy, TrueAppliance gains the really
// triggered appliances, and ReportedAppliance is the true state plus the
// forged statuses, so a rewritten stream drives the plant to the same state
// as the batch attacked simulation.
func (inj *Injector) Rewrite(s *Slot) {
	d, t := s.Day, s.Index
	if d < 0 || d >= len(inj.plan.RepZone) {
		return // beyond the campaign horizon: truth-telling
	}
	for o := range s.Reported {
		s.Reported[o] = OccupantReading{
			Zone:     inj.plan.RepZone[d][o][t],
			Activity: inj.plan.RepAct[d][o][t],
		}
	}
	// Really-triggered appliances are actually on: they draw power and
	// their status sensors read "on" honestly.
	for a := range s.TrueAppliance {
		if inj.plan.TriggeredAt(d, a, t) {
			s.TrueAppliance[a] = true
		}
	}
	// Believed statuses: the true electrical state plus forged statuses
	// consistent with the falsified presences (the activity-appliance
	// relationship makes the story self-consistent).
	for a := range s.ReportedAppliance {
		s.ReportedAppliance[a] = s.TrueAppliance[a] || inj.forged(s, a)
	}
}

// forged reports whether appliance a's status reads "on" only because a
// falsified occupant's reported activity habitually uses it in its zone.
func (inj *Injector) forged(s *Slot, a int) bool {
	appl := inj.house.Appliances[a]
	for o := range s.Reported {
		z := s.Reported[o].Zone
		if z != appl.Zone || z == s.True[o].Zone {
			continue // only falsified presences carry forged statuses
		}
		for _, ai := range inj.house.AppliancesForActivity(s.Reported[o].Activity) {
			if ai == a {
				return true
			}
		}
	}
	return false
}
