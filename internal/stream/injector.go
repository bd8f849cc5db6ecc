package stream

import (
	"errors"

	"github.com/acyd-lab/shatter/internal/attack"
	"github.com/acyd-lab/shatter/internal/home"
)

// Injector applies a precomputed attack.Plan to a home's stream in flight.
// Planning stays offline (the optimiser needs its horizon), but execution
// is live: RewriteBlock runs the plan's day kernel, attack.Plan.FalsifyDay
// (the one batch attack.EvaluateImpact runs), on each block's columns —
// reported occupancy from the plan, really triggered appliances switched on
// in the truth, and forged δ^D statuses in the believed ones. Days beyond
// the plan's horizon pass through truthfully.
type Injector struct {
	house *home.House
	plan  *attack.Plan
}

// ErrNilInjector guards construction.
var ErrNilInjector = errors.New("stream: nil house or plan")

// NewInjector builds the live injector for a home's plan.
func NewInjector(h *home.House, plan *attack.Plan) (*Injector, error) {
	if h == nil || plan == nil {
		return nil, ErrNilInjector
	}
	return &Injector{house: h, plan: plan}, nil
}

// Rewrite falsifies one slot in place — the per-slot reference RewriteBlock
// is locked against. It evaluates FalsifyDay's rule slot by slot:
// Reported takes the plan's occupancy, TrueAppliance gains the really
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
		if inj.plan.Triggered[d][a][t] {
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

// RewriteBlock falsifies one whole day block in place through the plan's
// day kernel, producing the same reported and true columns as Rewrite does
// slot by slot. Blocks beyond the plan's horizon pass through truthfully.
func (inj *Injector) RewriteBlock(b *DayBlock) {
	in := b.dayInput()
	inj.plan.FalsifyDay(inj.house, b.Day, &in)
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
