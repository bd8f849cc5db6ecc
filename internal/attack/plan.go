package attack

import (
	"cmp"
	"slices"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/hvac"
)

// Plan is a complete falsified-measurement campaign over a trace: the
// occupancy/activity stream the attacker reports to the control system plus
// any appliances really triggered by inaudible voice commands.
type Plan struct {
	// Strategy names the generator ("BIoTA", "Greedy", "SHATTER").
	Strategy string
	// RepZone[d][o][t] is the reported zone of occupant o at slot t, day d.
	RepZone [][][]home.ZoneID
	// RepAct[d][o][t] is the reported activity.
	RepAct [][][]home.ActivityID
	// Triggered[d][a] is the packed column (aras.ColumnBytes bytes, a bit
	// per slot) of appliance a's slots on day d that the attacker really
	// switched on (Algorithm 1). A day without a trigger holds no grid:
	// Triggered[d] stays nil until TriggerAppliances marks a trigger on day
	// d, so read single slots through TriggeredAt.
	Triggered [][][]byte
	// InfeasibleWindows counts optimisation windows that fell back to
	// truth-telling because no stealthy schedule existed.
	InfeasibleWindows int
}

// newPlan allocates a truth-telling plan (reported = actual) to be edited
// by the strategies.
func newPlan(trace *aras.Trace, strategy string) *Plan {
	days := trace.NumDays()
	p := &Plan{
		Strategy:  strategy,
		RepZone:   make([][][]home.ZoneID, days),
		RepAct:    make([][][]home.ActivityID, days),
		Triggered: make([][][]byte, days),
	}
	for d := 0; d < days; d++ {
		occ := len(trace.House.Occupants)
		p.RepZone[d] = make([][]home.ZoneID, occ)
		p.RepAct[d] = make([][]home.ActivityID, occ)
		for o := 0; o < occ; o++ {
			p.RepZone[d][o] = append([]home.ZoneID(nil), trace.Days[d].Zone[o]...)
			p.RepAct[d][o] = append([]home.ActivityID(nil), trace.Days[d].Act[o]...)
		}
	}
	return p
}

// CloneForTriggering returns a copy of the plan that shares the reported
// occupancy/activity streams (immutable once planning completes) but
// carries no triggers. Algorithm 1 can then mark triggers on the copy
// while the original remains a cacheable untriggered campaign.
func (p *Plan) CloneForTriggering() *Plan {
	return &Plan{
		Strategy:          p.Strategy,
		RepZone:           p.RepZone,
		RepAct:            p.RepAct,
		Triggered:         make([][][]byte, len(p.Triggered)),
		InfeasibleWindows: p.InfeasibleWindows,
	}
}

// TriggeredAt reports whether the attacker really switched appliance a on
// at slot t of day d; days beyond the plan and days without a trigger read
// false.
func (p *Plan) TriggeredAt(d, a, t int) bool {
	return d >= 0 && d < len(p.Triggered) && p.Triggered[d] != nil && aras.Bit(p.Triggered[d][a], t)
}

// setReport records a falsified observation, choosing the activity: the
// truth when the zone is truthful, otherwise the most intense activity of
// the reported zone (maximum demand, Algorithm 2's G-maximising choice).
func (p *Plan) setReport(trace *aras.Trace, day, occupant, slot int, z home.ZoneID) {
	actual := trace.Days[day].Zone[occupant][slot]
	p.RepZone[day][occupant][slot] = z
	if z == actual {
		p.RepAct[day][occupant][slot] = trace.Days[day].Act[occupant][slot]
		return
	}
	if z.Conditioned() {
		p.RepAct[day][occupant][slot] = trace.House.MostIntenseActivity(z)
	} else {
		p.RepAct[day][occupant][slot] = home.GoingOut
	}
}

// InjectedSlots counts occupant-slots whose reported zone differs from the
// actual zone — the attack vector's footprint.
func (p *Plan) InjectedSlots(trace *aras.Trace) int {
	n := 0
	for d := range p.RepZone {
		for o := range p.RepZone[d] {
			for t, z := range p.RepZone[d][o] {
				if z != trace.Days[d].Zone[o][t] {
					n++
				}
			}
		}
	}
	return n
}

// TriggeredSlots counts appliance-slots the attacker really switched on.
func (p *Plan) TriggeredSlots() int {
	n := 0
	for _, grid := range p.Triggered {
		for _, col := range grid {
			n += aras.CountBits(col)
		}
	}
	return n
}

// ReportedEpisode is one episode of the reported occupancy stream (the
// stream the ADM checks), labelled by Injected.
type ReportedEpisode struct {
	aras.Episode
	Injected bool
}

// DayReportedEpisodes extracts one occupant-day's episodes from the
// reported stream and labels each one with Injected.
func (p *Plan) DayReportedEpisodes(trace *aras.Trace, day, occupant int) []ReportedEpisode {
	truth := trace.DayEpisodes(day, occupant)
	reported := aras.AppendDayEpisodes(nil, day, occupant, p.RepZone[day][occupant], p.RepAct[day][occupant])
	out := make([]ReportedEpisode, len(reported))
	for i, e := range reported {
		out[i] = ReportedEpisode{Episode: e, Injected: Injected(e, truth)}
	}
	return out
}

// Injected is the one rule that labels a reported episode an injection: its
// (zone, arrival, duration) does not occur among truth, the same
// occupant's actual episodes for that day. That covers directly falsified
// stays and stays distorted by neighbouring injections; a reported episode
// that matches reality exactly is the defender's ordinary false-positive
// surface, not an attack artefact. truth must be in arrival order with
// distinct arrivals, as aras.AppendDayEpisodes emits a day, so the lookup
// is a binary search on the arrival slot.
func Injected(e aras.Episode, truth []aras.Episode) bool {
	i, found := slices.BinarySearchFunc(truth, e.ArrivalSlot, func(n aras.Episode, arrival int) int {
		return cmp.Compare(n.ArrivalSlot, arrival)
	})
	return !found || truth[i].Zone != e.Zone || truth[i].Duration != e.Duration
}

// FalsifyDay rewrites one day of columns in place into the falsified stream
// the attacked controller believes — the only column-wise form of the
// attack's execution, shared by batch EvaluateImpact and the streaming
// injector. On entry the columns hold the day's truth, the believed ones
// mirroring the actual ones; on return, within the plan's horizon:
//   - BelievedZone/BelievedAct hold the plan's reported occupancy;
//   - ActualAppliance has the really-triggered appliances OR-ed in (they
//     are on and draw power);
//   - BelievedAppliance is the actual state plus the forged δ^D statuses:
//     appliance a reads "on" at slot t iff some falsified presence's
//     reported activity habitually uses it in its zone (the
//     activity-appliance relationship makes the story self-consistent, so
//     the controller supplies cooling for its heat). Forged statuses are
//     beliefs only and draw no power.
//
// Days beyond the plan's horizon are left untouched: truth-telling.
// FalsifyDay reads the plan and in.ActualZone but never writes them, so
// plans and traces may be shared across concurrent evaluations as long as
// each has its own believed and actual-appliance columns.
func (p *Plan) FalsifyDay(house *home.House, day int, in *hvac.DayInput) {
	if day < 0 || day >= len(p.RepZone) {
		return // beyond the campaign horizon: truth-telling
	}
	for o := range in.BelievedZone {
		copy(in.BelievedZone[o], p.RepZone[day][o])
		copy(in.BelievedAct[o], p.RepAct[day][o])
	}
	if grid := p.Triggered[day]; grid != nil {
		for a, col := range in.ActualAppliance {
			aras.OrBits(col, grid[a])
		}
	}
	for a, col := range in.BelievedAppliance {
		copy(col, in.ActualAppliance[a])
	}
	for o, zones := range in.BelievedZone {
		acts, truth := in.BelievedAct[o], in.ActualZone[o]
		for t, z := range zones {
			if z == truth[t] {
				continue // only falsified presences carry forged statuses
			}
			for _, ai := range house.AppliancesForActivity(acts[t]) {
				if house.Appliances[ai].Zone == z {
					aras.SetBit(in.BelievedAppliance[ai], t, true)
				}
			}
		}
	}
}
