package attack

import (
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
	// Triggered[d][a][t] marks appliance a really switched on by the
	// attacker at slot t of day d (Algorithm 1).
	Triggered [][][]bool
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
		Triggered: make([][][]bool, days),
	}
	for d := 0; d < days; d++ {
		occ := len(trace.House.Occupants)
		p.RepZone[d] = make([][]home.ZoneID, occ)
		p.RepAct[d] = make([][]home.ActivityID, occ)
		for o := 0; o < occ; o++ {
			p.RepZone[d][o] = append([]home.ZoneID(nil), trace.Days[d].Zone[o]...)
			p.RepAct[d][o] = append([]home.ActivityID(nil), trace.Days[d].Act[o]...)
		}
		p.Triggered[d] = make([][]bool, len(trace.House.Appliances))
		for a := range p.Triggered[d] {
			p.Triggered[d][a] = make([]bool, aras.SlotsPerDay)
		}
	}
	return p
}

// CloneForTriggering returns a copy of the plan that shares the reported
// occupancy/activity streams (immutable once planning completes) but
// carries fresh, empty Triggered grids. Algorithm 1 can then mark triggers
// on the copy while the original remains a cacheable untriggered campaign.
func (p *Plan) CloneForTriggering() *Plan {
	out := &Plan{
		Strategy:          p.Strategy,
		RepZone:           p.RepZone,
		RepAct:            p.RepAct,
		Triggered:         make([][][]bool, len(p.Triggered)),
		InfeasibleWindows: p.InfeasibleWindows,
	}
	for d := range p.Triggered {
		out.Triggered[d] = make([][]bool, len(p.Triggered[d]))
		for a := range p.Triggered[d] {
			out.Triggered[d][a] = make([]bool, len(p.Triggered[d][a]))
		}
	}
	return out
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
	for d := range p.Triggered {
		for a := range p.Triggered[d] {
			for _, on := range p.Triggered[d][a] {
				if on {
					n++
				}
			}
		}
	}
	return n
}

// ReportedEpisodes converts the reported occupancy stream of one day and
// occupant into episodes (the stream the ADM checks). Injected marks an
// episode whose (zone, arrival, duration) does not occur in the actual
// stream — covering both directly falsified stays and stays distorted by
// neighbouring injections; episodes matching reality exactly are the
// defender's ordinary false-positive surface, not attack artefacts.
type ReportedEpisode struct {
	aras.Episode
	Injected bool
}

// DayReportedEpisodes extracts episodes from the reported stream.
func (p *Plan) DayReportedEpisodes(trace *aras.Trace, day, occupant int) []ReportedEpisode {
	return p.appendDayReportedEpisodes(nil, trace, day, occupant, naturalEpisodeSet(trace, day, occupant))
}

// naturalEpisodeSet indexes the actual stream's (zone, arrival, duration)
// triples for one occupant-day. Callers that re-extract reported episodes
// repeatedly (the sanitisation fixpoint) build it once and reuse it.
func naturalEpisodeSet(trace *aras.Trace, day, occupant int) map[[3]int]bool {
	natural := make(map[[3]int]bool)
	for _, e := range trace.DayEpisodes(day, occupant) {
		natural[[3]int{int(e.Zone), e.ArrivalSlot, e.Duration}] = true
	}
	return natural
}

// appendDayReportedEpisodes appends the day's reported episodes to buf,
// classifying injection against the prebuilt natural set.
func (p *Plan) appendDayReportedEpisodes(buf []ReportedEpisode, trace *aras.Trace, day, occupant int, natural map[[3]int]bool) []ReportedEpisode {
	zones := p.RepZone[day][occupant]
	start := 0
	for t := 1; t <= aras.SlotsPerDay; t++ {
		if t < aras.SlotsPerDay && zones[t] == zones[start] {
			continue
		}
		ep := aras.Episode{
			Day:         day,
			Occupant:    occupant,
			Zone:        zones[start],
			ArrivalSlot: start,
			Duration:    t - start,
		}
		buf = append(buf, ReportedEpisode{
			Episode:  ep,
			Injected: !natural[[3]int{int(ep.Zone), ep.ArrivalSlot, ep.Duration}],
		})
		if t < aras.SlotsPerDay {
			start = t
		}
	}
	return buf
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
	for a, col := range in.ActualAppliance {
		for t, on := range p.Triggered[day][a] {
			if on {
				col[t] = true
			}
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
					in.BelievedAppliance[ai][t] = true
				}
			}
		}
	}
}
