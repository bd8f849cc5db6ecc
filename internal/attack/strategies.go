package attack

import (
	"errors"
	"fmt"

	"github.com/acyd-lab/shatter/internal/adm"
	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/hvac"
	"github.com/acyd-lab/shatter/internal/pool"
	"github.com/acyd-lab/shatter/internal/solver"
)

// Planner bundles what every strategy needs: the ground truth, the
// attacker's (possibly partial-knowledge) ADM estimate, the cost surrogate,
// and the capability model.
type Planner struct {
	Trace *aras.Trace
	// Model is the attacker's estimate of the deployed ADM — trained on all
	// of the training data or only a subset (Table IV/V's "attacker's
	// knowledge" axis).
	Model *adm.Model
	// Cost is the marginal-cost surrogate the optimiser maximises.
	Cost *hvac.CostModel
	// Cap is the attacker's access.
	Cap Capability
	// WindowLen is the optimisation horizon I (Eq 17); the paper uses 10.
	// Defaults to 10 when zero.
	WindowLen int
	// Workers bounds the occupant-day planning fan-out: the cells of a
	// campaign (one per occupant-day for SHATTER/Greedy, one per day for
	// BIoTA) are independent and spread across a bounded worker pool.
	// 0 uses one worker per CPU; 1 forces sequential planning. Plans are
	// identical for any worker count.
	Workers int
}

// planScratch is one planning worker's reusable state: the DP workspace,
// the occupant-day's cost surface (surfaceFor) and its resolved zone grants
// (allowedFor). Scratch never influences results, only allocation counts,
// so sharing one per worker preserves the Workers=1 ≡ Workers=N
// determinism contract.
type planScratch struct {
	ws     solver.Workspace
	cost   costSurface
	zoneOK []bool
}

// ErrNeedModel is returned when a strategy requires an ADM estimate.
var ErrNeedModel = errors.New("attack: planner requires an ADM model")

func (pl *Planner) windowLen() int {
	if pl.WindowLen <= 0 {
		return 10
	}
	return pl.WindowLen
}

// zonesOf lists reportable zones for the house.
func zonesOf(h *home.House) []home.ZoneID {
	zs := make([]home.ZoneID, 0, len(h.Zones))
	for _, z := range h.Zones {
		zs = append(zs, z.ID)
	}
	return zs
}

// costSurface is one occupant-day's surrogate cost surface, indexed by
// (zone, slot) and computed cell by cell on first read. Cell (z, t) is the
// per-minute cost of the occupant reported in z at t with that zone's most
// intense activity, or with the actual activity when reporting truthfully.
// The planners read a small part of the surface, many times over, so each
// cell they read is evaluated once, from at most one hoisted
// hvac.OccupantLoad per (zone, activity). Cells and loads carry epoch
// stamps: opening the next occupant-day (surfaceFor) bumps the epoch
// instead of clearing them. Slots outside the day and zones outside the
// house cost 0. A surface is not safe for concurrent use.
type costSurface struct {
	cost     *hvac.CostModel
	house    *home.House
	occupant int
	nz       int
	temp     []float64
	zone     []home.ZoneID
	act      []home.ActivityID
	// val and stamp are the (zone, slot) cells; loads and loadStamp the
	// hoisted loads, indexed z·NumActivities + activity.
	val       []float64
	stamp     []uint32
	loads     []hvac.OccupantLoad
	loadStamp []uint32
	epoch     uint32
}

// surfaceFor points s at one occupant-day of the planner's trace,
// invalidating every cell of the previous one, and returns it as a CostFn,
// valid until s opens its next occupant-day.
func (pl *Planner) surfaceFor(s *costSurface, day, occupant int) solver.CostFn {
	s.cost, s.house, s.occupant = pl.Cost, pl.Trace.House, occupant
	s.nz = len(s.house.Zones)
	s.temp = pl.Trace.Weather[day].TempF
	s.zone = pl.Trace.Days[day].Zone[occupant]
	s.act = pl.Trace.Days[day].Act[occupant]
	if cells := s.nz * aras.SlotsPerDay; len(s.val) < cells {
		s.val = make([]float64, cells)
		s.stamp = make([]uint32, cells)
		s.loads = make([]hvac.OccupantLoad, s.nz*home.NumActivities)
		s.loadStamp = make([]uint32, s.nz*home.NumActivities)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 {
		// Stamp wrap-around: old stamps could alias the restarted epoch.
		clear(s.stamp)
		clear(s.loadStamp)
		s.epoch = 1
	}
	return s.at
}

// at is the surface as a solver.CostFn.
func (s *costSurface) at(slot int, z home.ZoneID) float64 {
	if slot < 0 || slot >= aras.SlotsPerDay || z < 0 || int(z) >= s.nz {
		return 0
	}
	c := int(z)*aras.SlotsPerDay + slot
	if s.stamp[c] != s.epoch {
		s.val[c] = s.compute(slot, z)
		s.stamp[c] = s.epoch
	}
	return s.val[c]
}

// compute evaluates cell (z, slot) under the intense-or-actual activity
// rule.
func (s *costSurface) compute(slot int, z home.ZoneID) float64 {
	if !z.Conditioned() {
		return 0
	}
	act := s.house.MostIntenseActivity(z)
	if s.zone[slot] == z {
		act = s.act[slot]
	}
	return s.cost.SlotCost(s.load(z, act), slot, s.temp[slot])
}

// load returns the occupant's hoisted load for (z, act), computing it on
// first use within the occupant-day.
func (s *costSurface) load(z home.ZoneID, act home.ActivityID) *hvac.OccupantLoad {
	if act < 0 || act >= home.NumActivities {
		l := s.cost.OccupantLoad(s.occupant, z, act)
		return &l
	}
	i := int(z)*home.NumActivities + int(act)
	if s.loadStamp[i] != s.epoch {
		s.loads[i] = s.cost.OccupantLoad(s.occupant, z, act)
		s.loadStamp[i] = s.epoch
	}
	return &s.loads[i]
}

// allowedFor builds the capability AllowedFn for one occupant and day. The
// capability's occupant and zone grants are read once into st.zoneOK, so a
// query costs slice loads instead of CanReport's map lookups; its answers
// equal Cap.CanReport for every slot and house zone. The returned function
// reads st and is valid until st plans its next occupant-day.
func (pl *Planner) allowedFor(st *planScratch, day, occupant int) solver.AllowedFn {
	actual := pl.Trace.Days[day].Zone[occupant]
	nz := len(pl.Trace.House.Zones)
	if cap(st.zoneOK) < nz {
		st.zoneOK = make([]bool, nz)
	}
	// zoneOK[z]: the attacker may move this occupant's report into or out
	// of zone z (CanReport's occupant and sensor-access terms).
	zoneOK := st.zoneOK[:nz]
	occupantOK := pl.Cap.Occupants[occupant]
	for z := range zoneOK {
		zoneOK[z] = occupantOK && pl.Cap.zoneOK(home.ZoneID(z))
	}
	slotOK := pl.Cap.SlotAllowed
	return func(slot int, z home.ZoneID) bool {
		a := actual[slot]
		if z == a {
			return true
		}
		return zoneOK[a] && zoneOK[z] && (slotOK == nil || slotOK(slot))
	}
}

// viableTerminal builds a window terminal check: the end state must be able
// to keep earning — continue the stay stealthily, exit into some covered
// zone, or coincide with ground truth (truth-telling can always continue).
// zones is the house's reportable zone list and bands the occupant's
// tabulated stay oracle, both hoisted by the caller so the
// per-terminal-state check allocates nothing. end points at the caller's
// current window end, so one closure serves every interior window of the
// occupant-day.
func (pl *Planner) viableTerminal(day, occupant int, end *int, zones []home.ZoneID, allowed solver.AllowedFn, bands *solver.StayBands) func(home.ZoneID, int) bool {
	return func(z home.ZoneID, arr int) bool {
		e := *end
		if e >= aras.SlotsPerDay {
			return true
		}
		if z == pl.Trace.Days[day].Zone[occupant][e] {
			return true // truth state: continuation is reality's problem
		}
		dur := e - arr
		if maxStay, ok := bands.MaxStayAt(z, arr); ok && dur+1 <= maxStay {
			return true // can keep staying
		}
		if !bands.InRange(z, arr, dur) {
			return false
		}
		for _, z2 := range zones {
			if z2 == z || !allowed(e, z2) {
				continue
			}
			if _, ok := bands.MaxStayAt(z2, e); ok {
				return true // can exit into a covered zone
			}
		}
		return false
	}
}

// CostFnFor exposes the occupant-day surrogate the planner optimises, on a
// fresh surface, for harnesses that score schedules outside the planner
// (the Table III case study). The returned function fills its surface as
// it reads, so it is not safe for concurrent use.
func (pl *Planner) CostFnFor(day, occupant int) solver.CostFn {
	return pl.surfaceFor(new(costSurface), day, occupant)
}

// actualArrival returns the start slot of the in-progress actual stay at
// the slot (scanning back within the day).
func actualArrival(trace *aras.Trace, day, occupant, slot int) int {
	zones := trace.Days[day].Zone[occupant]
	z := zones[slot]
	for slot > 0 && zones[slot-1] == z {
		slot--
	}
	return slot
}

// PlanSHATTER synthesises the paper's dynamic attack schedule: per
// occupant, per day, a chain of exactly optimised windows of length I
// (Section IV-C(a)), each solved with the DP engine against the attacker's
// ADM estimate and capability. Occupant-days are independent cells fanned
// across Workers; each worker recycles one DP workspace across its cells'
// ~144 windows.
func (pl *Planner) PlanSHATTER() (*Plan, error) {
	if pl.Model == nil {
		return nil, ErrNeedModel
	}
	p := newPlan(pl.Trace, "SHATTER")
	zones := zonesOf(pl.Trace.House)
	occ := len(pl.Trace.House.Occupants)
	cells := pl.Trace.NumDays() * occ
	// Each cell reports its infeasible-window count to its own slot; the
	// plan total is folded in index order, independent of pool width.
	infeasible := make([]int, cells)
	scratch := make([]planScratch, pool.Width(pl.Workers, cells))
	err := pool.RunIndexed(pl.Workers, cells, func(worker, i int) error {
		d, o := i/occ, i%occ
		n, err := pl.shatterDay(p, &scratch[worker], d, o, zones)
		infeasible[i] = n
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, n := range infeasible {
		p.InfeasibleWindows += n
	}
	return p, nil
}

// shatterDay plans one occupant-day: the chain of optimised windows, the
// truth floor, and the sanitisation pass. It writes only the (d, o) rows of
// the plan, which is what makes occupant-days safe to fan out.
func (pl *Planner) shatterDay(p *Plan, st *planScratch, d, o int, zones []home.ZoneID) (infeasible int, err error) {
	bands := pl.Model.StayBands(o)
	iLen := pl.windowLen()
	cost := pl.surfaceFor(&st.cost, d, o)
	allowed := pl.allowedFor(st, d, o)
	// The terminal closures are hoisted out of the window loop (one
	// allocation per occupant-day instead of per window) and read the
	// current interior-window end through this variable.
	var end int
	// Final window of the day: the midnight-cut episode the ADM will see
	// must itself lie within a cluster.
	terminalFinal := func(z home.ZoneID, arr int) bool {
		return bands.InRange(z, arr, aras.SlotsPerDay-arr)
	}
	// Interior window: score terminal states by how much the in-progress
	// stay can still earn next window, countering horizon myopia — and
	// require terminal states to be viable (able to continue or exit
	// stealthily) so a window cannot strand the next one in a dead end.
	terminalBonus := func(z home.ZoneID, arr int) float64 {
		maxStay, ok := bands.MaxStayAt(z, arr)
		if !ok {
			return 0
		}
		remaining := maxStay - (end - arr)
		if remaining <= 0 {
			return 0
		}
		if remaining > iLen {
			remaining = iLen
		}
		slot := end
		if slot >= aras.SlotsPerDay {
			slot = aras.SlotsPerDay - 1
		}
		return float64(remaining) * cost(slot, z)
	}
	terminalViable := pl.viableTerminal(d, o, &end, zones, allowed, bands)
	// Day starts truth-telling: occupants begin where they really
	// are (typically asleep), with the day-split arrival at slot 0.
	zone := pl.Trace.Days[d].Zone[o][0]
	arrival := 0
	for start := 0; start < aras.SlotsPerDay; start += iLen {
		length := iLen
		if start+length > aras.SlotsPerDay {
			length = aras.SlotsPerDay - start
		}
		w := solver.Window{
			Occupant:     o,
			StartSlot:    start,
			Length:       length,
			StartZone:    zone,
			StartArrival: arrival,
			Zones:        zones,
		}
		if start+length == aras.SlotsPerDay {
			w.TerminalOK = terminalFinal
		} else {
			end = start + length
			w.TerminalBonus = terminalBonus
			w.TerminalOK = terminalViable
		}
		sched, _, err := solver.OptimizeWindowBands(&st.ws, w, bands, cost, allowed)
		if err != nil {
			return infeasible, fmt.Errorf("attack: day %d occupant %d window %d: %w", d, o, start, err)
		}
		if !sched.Feasible && w.TerminalOK != nil && start+length != aras.SlotsPerDay {
			// No viable terminal existed; accept any terminal and
			// let the next window's fallback deal with dead ends.
			w.TerminalOK = nil
			sched, _, err = solver.OptimizeWindowBands(&st.ws, w, bands, cost, allowed)
			if err != nil {
				return infeasible, fmt.Errorf("attack: day %d occupant %d window %d: %w", d, o, start, err)
			}
		}
		if !sched.Feasible {
			infeasible++
			// Fall back to truth for this window.
			for i := 0; i < length; i++ {
				p.setReport(pl.Trace, d, o, start+i, pl.Trace.Days[d].Zone[o][start+i])
			}
			last := start + length - 1
			zone = pl.Trace.Days[d].Zone[o][last]
			arrival = actualArrival(pl.Trace, d, o, last)
			continue
		}
		for i, z := range sched.Zones {
			p.setReport(pl.Trace, d, o, start+i, z)
		}
		zone, arrival = sched.EndZone, sched.EndArrival
	}
	pl.applyTruthFloor(p, d, o, cost)
	pl.sanitizeDay(p, d, o)
	return infeasible, nil
}

// applyTruthFloor reverts an occupant-day to truth when the optimised
// schedule's surrogate value falls below simply not attacking (δ = 0 is
// always available to the attacker; hull constraints never apply to
// reality-as-reported). cost is the occupant-day surrogate, supplied by the
// caller so the optimiser's surface, and the cells it computed, are shared.
func (pl *Planner) applyTruthFloor(p *Plan, day, occupant int, cost solver.CostFn) {
	var scheduled, truth float64
	for t := 0; t < aras.SlotsPerDay; t++ {
		scheduled += cost(t, p.RepZone[day][occupant][t])
		truth += cost(t, pl.Trace.Days[day].Zone[occupant][t])
	}
	if scheduled >= truth {
		return
	}
	for t := 0; t < aras.SlotsPerDay; t++ {
		p.setReport(pl.Trace, day, occupant, t, pl.Trace.Days[day].Zone[occupant][t])
	}
}

// sanitizeDay censors residual anomalies: any injected reported episode the
// attacker's own model would flag (window-boundary artefacts, lenient-start
// exits) is reverted to truth, iterating to a fixpoint since reverting can
// merge neighbouring episodes. If anomalous injections survive the
// iteration cap the whole occupant-day reverts to truth — the attacker
// never knowingly ships a flagged vector.
func (pl *Planner) sanitizeDay(p *Plan, day, occupant int) {
	// The truth episodes and the episode buffer are invariant across
	// fixpoint iterations; build/allocate them once.
	truth := pl.Trace.DayEpisodes(day, occupant)
	var episodes []aras.Episode
	for iter := 0; iter < 64; iter++ {
		changed := 0
		anomalous := 0
		episodes = aras.AppendDayEpisodes(episodes[:0], day, occupant, p.RepZone[day][occupant], p.RepAct[day][occupant])
		for _, e := range episodes {
			if !Injected(e, truth) || !pl.Model.EpisodeAnomalous(e) {
				continue
			}
			anomalous++
			end := e.ArrivalSlot + e.Duration
			for t := e.ArrivalSlot; t < end; t++ {
				if p.RepZone[day][occupant][t] != pl.Trace.Days[day].Zone[occupant][t] {
					changed++
				}
				p.setReport(pl.Trace, day, occupant, t, pl.Trace.Days[day].Zone[occupant][t])
			}
		}
		if anomalous == 0 {
			return
		}
		if changed == 0 {
			break // stuck: reverting altered nothing (distorted truth episodes)
		}
	}
	// Whole-day revert.
	for t := 0; t < aras.SlotsPerDay; t++ {
		p.setReport(pl.Trace, day, occupant, t, pl.Trace.Days[day].Zone[occupant][t])
	}
}

// PlanGreedy implements Algorithm 2: whenever the in-progress reported stay
// can exit stealthily, move to the zone with the highest instantaneous cost
// and commit to its maximum stealthy stay. The strategy's weaknesses — no
// lookahead and maxStay commitments — are exactly what the Section V case
// study demonstrates: it gets trapped (e.g. Bob parked Outside) where the
// windowed SHATTER schedule keeps earning.
func (pl *Planner) PlanGreedy() (*Plan, error) {
	if pl.Model == nil {
		return nil, ErrNeedModel
	}
	p := newPlan(pl.Trace, "Greedy")
	zones := zonesOf(pl.Trace.House)
	occ := len(pl.Trace.House.Occupants)
	cells := pl.Trace.NumDays() * occ
	scratch := make([]planScratch, pool.Width(pl.Workers, cells))
	err := pool.RunIndexed(pl.Workers, cells, func(worker, i int) error {
		d, o := i/occ, i%occ
		st := &scratch[worker]
		cost := pl.surfaceFor(&st.cost, d, o)
		pl.greedyDay(p, st, d, o, zones, cost)
		pl.applyTruthFloor(p, d, o, cost)
		pl.sanitizeDay(p, d, o)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// greedyDay walks one occupant-day as a consistency-checked state machine.
// zones is the house's reportable zone list and cost the occupant-day
// surrogate, both hoisted by the caller; st is the worker's scratch.
func (pl *Planner) greedyDay(p *Plan, st *planScratch, d, o int, zones []home.ZoneID, cost solver.CostFn) {
	bands := pl.Model.StayBands(o)
	allowed := pl.allowedFor(st, d, o)
	zone := pl.Trace.Days[d].Zone[o][0]
	arrival := 0
	commitUntil := 0 // committed stay end (Algorithm 2's duration)
	_, startCovered := bands.MaxStayAt(zone, arrival)
	lenient := !startCovered
	for t := 0; t < aras.SlotsPerDay; t++ {
		dur := t - arrival
		canExit := dur >= 1 && (lenient || bands.InRange(zone, arrival, dur))
		// Will the current stay still be stealthy through slot t?
		maxStay, covered := bands.MaxStayAt(zone, arrival)
		mustMove := !(lenient || (covered && dur+1 <= maxStay)) || !allowed(t, zone)
		if canExit && (t >= commitUntil || mustMove) {
			// Re-choose: the highest-paying zone whose arrival is covered.
			bestZone, bestCost := home.ZoneID(-1), -1.0
			var bestMax int
			for _, z := range zones {
				if z == zone || !allowed(t, z) {
					continue
				}
				ms, ok := bands.MaxStayAt(z, t)
				if !ok || ms < 1 {
					continue
				}
				if c := cost(t, z); c > bestCost {
					bestZone, bestCost, bestMax = z, c, ms
				}
			}
			if bestZone >= 0 && (mustMove || bestCost > cost(t, zone)) {
				zone, arrival, lenient = bestZone, t, false
				commitUntil = t + bestMax
				if commitUntil > aras.SlotsPerDay {
					commitUntil = aras.SlotsPerDay
				}
				mustMove = false
			}
		}
		if mustMove {
			// No stealthy option: fall back to reporting the truth.
			zone = pl.Trace.Days[d].Zone[o][t]
			arrival = actualArrival(pl.Trace, d, o, t)
			_, cov := bands.MaxStayAt(zone, arrival)
			lenient = !cov
			commitUntil = t
		}
		p.setReport(pl.Trace, d, o, t, zone)
	}
}

// PlanBIoTA reproduces the state-of-the-art baseline the paper compares
// against (Table V): a greedy FDI attack that maximises instantaneous
// demand subject only to rule-based verification (zone capacity, occupant
// conservation) — no behavioural ADM awareness. Its vectors keep a large
// margin from the benign distribution, which is why the clustering ADMs
// flag 60-100% of them (Section VII-A).
func (pl *Planner) PlanBIoTA() (*Plan, error) {
	p := newPlan(pl.Trace, "BIoTA")
	house := pl.Trace.House
	zones := zonesOf(house)
	// Hoist the loop invariants: zone capacities once, and per worker a
	// zone-indexed occupancy counter plus per-occupant cost surrogates
	// (rebuilt per day) in place of per-slot maps. Days are independent
	// cells — the capacity rule couples occupants within a slot, so the
	// fan-out is per day, not per occupant-day.
	maxOcc := make([]int, len(house.Zones))
	for _, z := range zones {
		maxOcc[z] = house.Zone(z).MaxOccupancy
	}
	type biotaScratch struct {
		counts   []int
		costs    []solver.CostFn
		surfaces []costSurface
	}
	days := pl.Trace.NumDays()
	scratch := make([]biotaScratch, pool.Width(pl.Workers, days))
	err := pool.RunIndexed(pl.Workers, days, func(worker, d int) error {
		st := &scratch[worker]
		if st.counts == nil {
			st.counts = make([]int, len(house.Zones))
			st.costs = make([]solver.CostFn, len(house.Occupants))
			st.surfaces = make([]costSurface, len(house.Occupants))
		}
		for o := range st.costs {
			st.costs[o] = pl.surfaceFor(&st.surfaces[o], d, o)
		}
		for t := 0; t < aras.SlotsPerDay; t++ {
			counts := st.counts
			for z := range counts {
				counts[z] = 0
			}
			for o := range house.Occupants {
				cost := st.costs[o]
				actual := pl.Trace.Days[d].Zone[o][t]
				bestZone, bestCost := actual, cost(t, actual)
				for _, z := range zones {
					if !pl.Cap.CanReport(o, t, actual, z) {
						continue
					}
					// Rule-based capacity verification.
					if counts[z]+1 > maxOcc[z] {
						continue
					}
					if c := cost(t, z); c > bestCost {
						bestZone, bestCost = z, c
					}
				}
				counts[bestZone]++
				p.setReport(pl.Trace, d, o, t, bestZone)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}
