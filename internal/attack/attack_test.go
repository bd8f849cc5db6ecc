package attack

import (
	"math"
	"reflect"
	"testing"

	"github.com/acyd-lab/shatter/internal/adm"
	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/hvac"
)

// fixture bundles a trained world for attack tests: a 12-day trace with the
// ADM trained on it.
type fixture struct {
	trace   *aras.Trace
	model   *adm.Model
	cost    *hvac.CostModel
	params  hvac.Params
	pricing hvac.Pricing
	ctrl    hvac.Controller
}

func newFixture(t *testing.T, houseName string, days int) *fixture {
	t.Helper()
	h := home.MustHouse(houseName)
	tr, err := aras.Generate(h, aras.GeneratorConfig{Days: days, Seed: 777})
	if err != nil {
		t.Fatal(err)
	}
	cfg := adm.Config{Algorithm: adm.KMeans, K: 24, Seed: 3}
	model, err := adm.Train(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	params := hvac.DefaultParams()
	pricing := hvac.DefaultPricing()
	return &fixture{
		trace:   tr,
		model:   model,
		cost:    hvac.NewCostModel(h, params, pricing),
		params:  params,
		pricing: pricing,
		ctrl:    &hvac.SHATTERController{Params: params},
	}
}

func (f *fixture) planner(cap Capability) *Planner {
	return &Planner{Trace: f.trace, Model: f.model, Cost: f.cost, Cap: cap, WindowLen: 10}
}

func TestCapabilityFull(t *testing.T) {
	h := home.MustHouse("A")
	c := Full(h)
	if !c.CanReport(0, 100, home.Bedroom, home.Kitchen) {
		t.Error("full capability should allow any report")
	}
	if !c.CanTrigger(0, 100) {
		t.Error("full capability should allow any trigger")
	}
}

func TestCapabilityTruthAlwaysAllowed(t *testing.T) {
	c := Capability{} // no access at all
	if !c.CanReport(0, 100, home.Bedroom, home.Bedroom) {
		t.Error("reporting the truth requires no access")
	}
	if c.CanReport(0, 100, home.Bedroom, home.Kitchen) {
		t.Error("no-access attacker cannot falsify")
	}
}

func TestCapabilityZoneRestriction(t *testing.T) {
	h := home.MustHouse("A")
	c := Full(h).WithZones(home.Bedroom, home.Livingroom)
	// Reporting Bedroom→Livingroom OK (both accessible).
	if !c.CanReport(0, 10, home.Bedroom, home.Livingroom) {
		t.Error("both-accessible report should pass")
	}
	// Kitchen sensors unreachable: cannot report into the kitchen...
	if c.CanReport(0, 10, home.Bedroom, home.Kitchen) {
		t.Error("report into inaccessible zone should fail")
	}
	// ...nor move someone who is really in the kitchen.
	if c.CanReport(0, 10, home.Kitchen, home.Bedroom) {
		t.Error("report out of inaccessible zone should fail")
	}
	// Outside needs no sensors.
	if !c.CanReport(0, 10, home.Bedroom, home.Outside) {
		t.Error("reporting Outside should only need actual-zone access")
	}
}

func TestCapabilitySlotRestriction(t *testing.T) {
	h := home.MustHouse("A")
	c := Full(h)
	c.SlotAllowed = func(slot int) bool { return slot >= 600 }
	if c.CanReport(0, 100, home.Bedroom, home.Kitchen) {
		t.Error("slot outside T^A should fail")
	}
	if !c.CanReport(0, 700, home.Bedroom, home.Kitchen) {
		t.Error("slot inside T^A should pass")
	}
	if c.CanTrigger(0, 100) {
		t.Error("trigger outside T^A should fail")
	}
}

func TestCapabilityOccupantRestriction(t *testing.T) {
	h := home.MustHouse("A")
	c := Full(h).WithOccupants(1)
	if c.CanReport(0, 100, home.Bedroom, home.Kitchen) {
		t.Error("occupant 0 stream not accessible")
	}
	if !c.CanReport(1, 100, home.Bedroom, home.Kitchen) {
		t.Error("occupant 1 stream accessible")
	}
}

func TestPlanRequiresModel(t *testing.T) {
	f := newFixture(t, "A", 6)
	pl := &Planner{Trace: f.trace, Cost: f.cost, Cap: Full(f.trace.House)}
	if _, err := pl.PlanSHATTER(); err == nil {
		t.Error("PlanSHATTER without model should error")
	}
	if _, err := pl.PlanGreedy(); err == nil {
		t.Error("PlanGreedy without model should error")
	}
}

func TestSHATTERPlanIncreasesCost(t *testing.T) {
	f := newFixture(t, "A", 8)
	pl := f.planner(Full(f.trace.House))
	plan, err := pl.PlanSHATTER()
	if err != nil {
		t.Fatal(err)
	}
	if plan.InjectedSlots(f.trace) == 0 {
		t.Fatal("SHATTER plan injected nothing")
	}
	imp, err := EvaluateImpact(f.trace, plan, f.model, f.ctrl, f.params, f.pricing, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if imp.ExtraCostUSD <= 0 {
		t.Fatalf("attack should raise cost, extra = %v", imp.ExtraCostUSD)
	}
}

func TestSHATTERPlanStealthyAgainstOwnModel(t *testing.T) {
	f := newFixture(t, "A", 8)
	pl := f.planner(Full(f.trace.House))
	plan, err := pl.PlanSHATTER()
	if err != nil {
		t.Fatal(err)
	}
	imp, err := EvaluateImpact(f.trace, plan, f.model, f.ctrl, f.params, f.pricing, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// With full knowledge (attacker model == defender model) the schedule
	// must be essentially undetectable.
	if imp.DetectionRate > 0.05 {
		t.Errorf("full-knowledge SHATTER detection rate = %v, want ~0", imp.DetectionRate)
	}
}

func TestSHATTERBeatsGreedy(t *testing.T) {
	f := newFixture(t, "A", 8)
	pl := f.planner(Full(f.trace.House))
	shatter, err := pl.PlanSHATTER()
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := pl.PlanGreedy()
	if err != nil {
		t.Fatal(err)
	}
	impS, err := EvaluateImpact(f.trace, shatter, f.model, f.ctrl, f.params, f.pricing, EvalOptions{AbortDetectedDays: true})
	if err != nil {
		t.Fatal(err)
	}
	impG, err := EvaluateImpact(f.trace, greedy, f.model, f.ctrl, f.params, f.pricing, EvalOptions{AbortDetectedDays: true})
	if err != nil {
		t.Fatal(err)
	}
	if impS.Attacked.TotalCostUSD < impG.Attacked.TotalCostUSD {
		t.Errorf("SHATTER (%v) should be >= greedy (%v)",
			impS.Attacked.TotalCostUSD, impG.Attacked.TotalCostUSD)
	}
}

func TestBIoTAHighCostHighDetection(t *testing.T) {
	f := newFixture(t, "A", 8)
	pl := f.planner(Full(f.trace.House))
	biota, err := pl.PlanBIoTA()
	if err != nil {
		t.Fatal(err)
	}
	shatter, err := pl.PlanSHATTER()
	if err != nil {
		t.Fatal(err)
	}
	impB, err := EvaluateImpact(f.trace, biota, f.model, f.ctrl, f.params, f.pricing, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	impS, err := EvaluateImpact(f.trace, shatter, f.model, f.ctrl, f.params, f.pricing, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// BIoTA, unconstrained by the ADM, racks up at least as much raw cost...
	if impB.Attacked.TotalCostUSD < impS.Attacked.TotalCostUSD {
		t.Errorf("BIoTA raw cost (%v) should be >= SHATTER (%v)",
			impB.Attacked.TotalCostUSD, impS.Attacked.TotalCostUSD)
	}
	// ...but the ADM catches the majority of its vectors (60-100% in the
	// paper).
	if impB.DetectionRate < 0.5 {
		t.Errorf("BIoTA detection rate = %v, want >= 0.5", impB.DetectionRate)
	}
	if impS.DetectionRate >= impB.DetectionRate {
		t.Errorf("SHATTER detection (%v) should be below BIoTA (%v)",
			impS.DetectionRate, impB.DetectionRate)
	}
}

func TestTriggerAddsImpact(t *testing.T) {
	f := newFixture(t, "A", 8)
	cap := Full(f.trace.House)
	pl := f.planner(cap)
	plan, err := pl.PlanSHATTER()
	if err != nil {
		t.Fatal(err)
	}
	impNoTrig, err := EvaluateImpact(f.trace, plan, f.model, f.ctrl, f.params, f.pricing, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := TriggerAppliances(f.trace, plan, f.model, cap)
	if n == 0 {
		t.Fatal("no appliances triggered")
	}
	if plan.TriggeredSlots() != n {
		t.Errorf("TriggeredSlots %d != reported %d", plan.TriggeredSlots(), n)
	}
	impTrig, err := EvaluateImpact(f.trace, plan, f.model, f.ctrl, f.params, f.pricing, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if impTrig.Attacked.TotalCostUSD <= impNoTrig.Attacked.TotalCostUSD {
		t.Errorf("triggering should add cost: %v vs %v",
			impTrig.Attacked.TotalCostUSD, impNoTrig.Attacked.TotalCostUSD)
	}
	plan.ClearTriggers()
	if plan.TriggeredSlots() != 0 {
		t.Error("ClearTriggers left residue")
	}
}

func TestTriggerRespectsOccupancyAndCapability(t *testing.T) {
	f := newFixture(t, "A", 6)
	cap := Full(f.trace.House).WithAppliances(0) // oven only
	pl := f.planner(cap)
	plan, err := pl.PlanSHATTER()
	if err != nil {
		t.Fatal(err)
	}
	TriggerAppliances(f.trace, plan, f.model, cap)
	for d := range plan.Triggered {
		for a := range plan.Triggered[d] {
			for tslot, on := range plan.Triggered[d][a] {
				if !on {
					continue
				}
				if a != 0 {
					t.Fatalf("triggered inaccessible appliance %d", a)
				}
				z := f.trace.House.Appliances[a].Zone
				if zoneActuallyOccupied(f.trace, d, tslot, z) {
					t.Fatalf("triggered %v while really occupied (day %d slot %d)", z, d, tslot)
				}
			}
		}
	}
}

func TestZoneRestrictionReducesImpact(t *testing.T) {
	f := newFixture(t, "A", 8)
	full := Full(f.trace.House)
	restricted := full.WithZones(home.Bedroom, home.Livingroom)
	planFull, err := f.planner(full).PlanSHATTER()
	if err != nil {
		t.Fatal(err)
	}
	planRestr, err := f.planner(restricted).PlanSHATTER()
	if err != nil {
		t.Fatal(err)
	}
	impFull, err := EvaluateImpact(f.trace, planFull, f.model, f.ctrl, f.params, f.pricing, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	impRestr, err := EvaluateImpact(f.trace, planRestr, f.model, f.ctrl, f.params, f.pricing, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if impRestr.ExtraCostUSD >= impFull.ExtraCostUSD {
		t.Errorf("2-zone impact (%v) should be below 4-zone impact (%v)",
			impRestr.ExtraCostUSD, impFull.ExtraCostUSD)
	}
}

func TestAbortDetectedDaysLowersCost(t *testing.T) {
	f := newFixture(t, "A", 8)
	pl := f.planner(Full(f.trace.House))
	biota, err := pl.PlanBIoTA()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := EvaluateImpact(f.trace, biota, f.model, f.ctrl, f.params, f.pricing, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	aborted, err := EvaluateImpact(f.trace, biota, f.model, f.ctrl, f.params, f.pricing, EvalOptions{AbortDetectedDays: true})
	if err != nil {
		t.Fatal(err)
	}
	if aborted.Attacked.TotalCostUSD >= raw.Attacked.TotalCostUSD {
		t.Errorf("aborting detected days should cut cost: %v vs %v",
			aborted.Attacked.TotalCostUSD, raw.Attacked.TotalCostUSD)
	}
	if aborted.DetectedDays == 0 {
		t.Error("BIoTA should have detected days")
	}
}

func TestReportedEpisodesPartition(t *testing.T) {
	f := newFixture(t, "A", 6)
	pl := f.planner(Full(f.trace.House))
	plan, err := pl.PlanSHATTER()
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < f.trace.NumDays(); d++ {
		for o := range f.trace.House.Occupants {
			total := 0
			for _, e := range plan.DayReportedEpisodes(f.trace, d, o) {
				total += e.Duration
			}
			if total != aras.SlotsPerDay {
				t.Fatalf("day %d occ %d: episodes cover %d slots", d, o, total)
			}
		}
	}
}

func TestNoCapabilityNoInjection(t *testing.T) {
	f := newFixture(t, "A", 4)
	pl := f.planner(Capability{}) // powerless attacker
	for _, tc := range []struct {
		name string
		plan func(pl *Planner) (*Plan, error)
	}{
		{"SHATTER", (*Planner).PlanSHATTER},
		{"BIoTA", (*Planner).PlanBIoTA},
	} {
		plan, err := tc.plan(pl)
		if err != nil {
			t.Fatal(err)
		}
		if got := plan.InjectedSlots(f.trace); got != 0 {
			t.Errorf("%s: powerless attacker injected %d slots", tc.name, got)
		}
		imp, err := EvaluateImpact(f.trace, plan, f.model, f.ctrl, f.params, f.pricing, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(imp.ExtraCostUSD) > 1e-9 {
			t.Errorf("%s: powerless attack changed cost by %v", tc.name, imp.ExtraCostUSD)
		}
	}
}

// TestPlannerWorkersDeterministic asserts the planner's fan-out contract:
// for every strategy, a Workers=1 plan and a wide-pool plan are identical,
// occupant-slot for occupant-slot. CI runs this under -race to certify the
// occupant-day cells really are independent.
func TestPlannerWorkersDeterministic(t *testing.T) {
	f := newFixture(t, "A", 8)
	for _, tc := range []struct {
		name string
		plan func(pl *Planner) (*Plan, error)
	}{
		{"SHATTER", (*Planner).PlanSHATTER},
		{"Greedy", (*Planner).PlanGreedy},
		{"BIoTA", (*Planner).PlanBIoTA},
	} {
		seqPl := f.planner(Full(f.trace.House))
		seqPl.Workers = 1
		seq, err := tc.plan(seqPl)
		if err != nil {
			t.Fatalf("%s sequential: %v", tc.name, err)
		}
		parPl := f.planner(Full(f.trace.House))
		parPl.Workers = 8
		par, err := tc.plan(parPl)
		if err != nil {
			t.Fatalf("%s parallel: %v", tc.name, err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("%s: Workers=1 and Workers=8 plans diverge", tc.name)
		}
	}
}

// TestPlannerOccupantDayAllocBounds is the allocation-regression gate for
// the planning hot path: a warm re-plan must stay within a fixed allocation
// budget per occupant-day (the residue is the plan skeleton, the per-cell
// closures, and the sanitisation ledger — the ~144 DP windows themselves
// allocate nothing).
func TestPlannerOccupantDayAllocBounds(t *testing.T) {
	f := newFixture(t, "A", 8)
	pl := f.planner(Full(f.trace.House))
	pl.Workers = 1 // AllocsPerRun needs the single-goroutine path
	cells := float64(f.trace.NumDays() * len(f.trace.House.Occupants))
	for _, tc := range []struct {
		name   string
		plan   func() error
		budget float64 // allocs per occupant-day, ~2x measured headroom
	}{
		{"SHATTER", func() error { _, err := pl.PlanSHATTER(); return err }, 120},
		{"Greedy", func() error { _, err := pl.PlanGreedy(); return err }, 110},
	} {
		if err := tc.plan(); err != nil { // warm-up
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if err := tc.plan(); err != nil {
				t.Fatal(err)
			}
		})
		if perCell := allocs / cells; perCell > tc.budget {
			t.Errorf("%s: %.1f allocs per occupant-day, budget %.0f", tc.name, perCell, tc.budget)
		}
	}
}

// oracleActualApplianceOn is the per-slot reference for an appliance's true
// electrical state under attack: its trace status, or really triggered.
func oracleActualApplianceOn(trace *aras.Trace, plan *Plan, day, slot, a int) bool {
	return trace.Days[day].Appliance[a][slot] || plan.Triggered[day][a][slot]
}

// oracleApplianceOn is the per-slot reference for the δ^D rule FalsifyDay
// implements column-wise: appliance a reads "on" to the attacked controller
// when it really is on, or when a falsified presence's reported activity
// habitually uses it in its zone.
func oracleApplianceOn(trace *aras.Trace, plan *Plan, day, slot, a int) bool {
	if oracleActualApplianceOn(trace, plan, day, slot, a) {
		return true
	}
	appl := trace.House.Appliances[a]
	for o := range plan.RepZone[day] {
		z := plan.RepZone[day][o][slot]
		if z != appl.Zone || z == trace.Days[day].Zone[o][slot] {
			continue // only falsified presences carry forged statuses
		}
		for _, ai := range trace.House.AppliancesForActivity(plan.RepAct[day][o][slot]) {
			if ai == a {
				return true
			}
		}
	}
	return false
}

// cloneDay returns a deep copy of a trace day.
func cloneDay(day aras.Day) aras.Day {
	c := aras.NewDay(len(day.Zone), len(day.Appliance))
	for o := range day.Zone {
		copy(c.Zone[o], day.Zone[o])
		copy(c.Act[o], day.Act[o])
	}
	for a := range day.Appliance {
		copy(c.Appliance[a], day.Appliance[a])
	}
	return c
}

// truthDayInput returns day d of the trace as day-kernel columns, with the
// believed and actual-appliance columns in fresh copies of the truth.
func truthDayInput(tr *aras.Trace, d int) hvac.DayInput {
	day := tr.Days[d]
	believed := cloneDay(day)
	actualAppl := cloneDay(day).Appliance
	return hvac.DayInput{
		OutdoorTempF:      tr.Weather[d].TempF,
		OutdoorCO2PPM:     tr.Weather[d].CO2PPM,
		BelievedZone:      believed.Zone,
		BelievedAct:       believed.Act,
		BelievedAppliance: believed.Appliance,
		ActualZone:        day.Zone,
		ActualAct:         day.Act,
		ActualAppliance:   actualAppl,
	}
}

// overlayPlan returns a deep copy of p spanning every day of trace: p's
// reported rows and triggers over a truth-telling plan, so days past p's
// horizon tell the truth.
func overlayPlan(trace *aras.Trace, p *Plan) *Plan {
	out := newPlan(trace, p.Strategy)
	out.InfeasibleWindows = p.InfeasibleWindows
	for d := range p.RepZone {
		for o := range p.RepZone[d] {
			copy(out.RepZone[d][o], p.RepZone[d][o])
			copy(out.RepAct[d][o], p.RepAct[d][o])
		}
		for a := range p.Triggered[d] {
			copy(out.Triggered[d][a], p.Triggered[d][a])
		}
	}
	return out
}

// triggeredPlans returns BIoTA, Greedy and SHATTER plans for the fixture,
// each with Algorithm-1 triggers.
func triggeredPlans(t *testing.T, f *fixture) []*Plan {
	t.Helper()
	cap := Full(f.trace.House)
	pl := f.planner(cap)
	var plans []*Plan
	for _, mk := range []func() (*Plan, error){pl.PlanBIoTA, pl.PlanGreedy, pl.PlanSHATTER} {
		plan, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		if TriggerAppliances(f.trace, plan, f.model, cap) == 0 {
			t.Fatalf("%s: no appliances triggered", plan.Strategy)
		}
		plans = append(plans, plan)
	}
	return plans
}

// TestFalsifyDayMatchesOracle checks every column the day kernel rewrites
// against the per-slot oracle, on every day of BIoTA, Greedy and SHATTER
// plans with triggers on both paper houses, and that the kernel never
// writes the plan or the trace it reads.
func TestFalsifyDayMatchesOracle(t *testing.T) {
	for _, name := range []string{"A", "B"} {
		f := newFixture(t, name, 8)
		house := f.trace.House
		var truthBefore []aras.Day
		for _, day := range f.trace.Days {
			truthBefore = append(truthBefore, cloneDay(day))
		}
		for _, plan := range triggeredPlans(t, f) {
			planBefore := overlayPlan(f.trace, plan)
			forged := 0
			for d := range f.trace.Days {
				in := truthDayInput(f.trace, d)
				plan.FalsifyDay(house, d, &in)
				for o := range house.Occupants {
					if !reflect.DeepEqual(in.BelievedZone[o], plan.RepZone[d][o]) ||
						!reflect.DeepEqual(in.BelievedAct[o], plan.RepAct[d][o]) {
						t.Fatalf("house %s %s day %d occ %d: believed occupancy differs from the plan", name, plan.Strategy, d, o)
					}
				}
				for a := range house.Appliances {
					for slot := 0; slot < aras.SlotsPerDay; slot++ {
						if got, want := in.ActualAppliance[a][slot], oracleActualApplianceOn(f.trace, plan, d, slot, a); got != want {
							t.Fatalf("house %s %s day %d slot %d appl %d: actual %v, oracle %v", name, plan.Strategy, d, slot, a, got, want)
						}
						got, want := in.BelievedAppliance[a][slot], oracleApplianceOn(f.trace, plan, d, slot, a)
						if got != want {
							t.Fatalf("house %s %s day %d slot %d appl %d: believed %v, oracle %v", name, plan.Strategy, d, slot, a, got, want)
						}
						if got && !in.ActualAppliance[a][slot] {
							forged++
						}
					}
				}
			}
			if forged == 0 {
				t.Errorf("house %s %s: no forged δ^D statuses, the rule went unexercised", name, plan.Strategy)
			}
			if !reflect.DeepEqual(plan, planBefore) {
				t.Errorf("house %s %s: FalsifyDay wrote the plan", name, plan.Strategy)
			}
			if !reflect.DeepEqual(f.trace.Days, truthBefore) {
				t.Errorf("house %s %s: FalsifyDay wrote the trace", name, plan.Strategy)
			}
		}
	}
}

// stepOracle replays the attacked plant slot by slot through Sim.Step with
// the oracle's beliefs; days marked in reverted replay the truth.
func stepOracle(t *testing.T, f *fixture, plan *Plan, reverted []bool) hvac.Result {
	t.Helper()
	house := f.trace.House
	sim, err := hvac.NewSim(house, &hvac.SHATTERController{Params: f.params}, f.params, f.pricing)
	if err != nil {
		t.Fatal(err)
	}
	in := hvac.StepInput{
		Believed:          make([]hvac.OccupantObs, len(house.Occupants)),
		BelievedAppliance: make([]bool, len(house.Appliances)),
		ActualOccupants:   make([]hvac.OccupantObs, len(house.Occupants)),
		ActualAppliance:   make([]bool, len(house.Appliances)),
	}
	for d, day := range f.trace.Days {
		truth := reverted != nil && reverted[d]
		for slot := 0; slot < aras.SlotsPerDay; slot++ {
			in.OutdoorTempF = f.trace.Weather[d].TempF[slot]
			in.OutdoorCO2PPM = f.trace.Weather[d].CO2PPM[slot]
			for o := range house.Occupants {
				in.ActualOccupants[o] = hvac.OccupantObs{Zone: day.Zone[o][slot], Activity: day.Act[o][slot]}
				in.Believed[o] = in.ActualOccupants[o]
				if !truth {
					in.Believed[o] = hvac.OccupantObs{Zone: plan.RepZone[d][o][slot], Activity: plan.RepAct[d][o][slot]}
				}
			}
			for a := range house.Appliances {
				in.ActualAppliance[a] = day.Appliance[a][slot]
				in.BelievedAppliance[a] = day.Appliance[a][slot]
				if !truth {
					in.ActualAppliance[a] = oracleActualApplianceOn(f.trace, plan, d, slot, a)
					in.BelievedAppliance[a] = oracleApplianceOn(f.trace, plan, d, slot, a)
				}
			}
			sim.Step(in)
		}
	}
	return sim.Result()
}

// TestEvaluateImpactMatchesStepOracle pins EvaluateImpact's day-kernel
// attacked leg to a per-slot Sim.Step replay through the oracle, with
// detected days aborted and not.
func TestEvaluateImpactMatchesStepOracle(t *testing.T) {
	for _, name := range []string{"A", "B"} {
		f := newFixture(t, name, 8)
		aborted := false
		for _, plan := range triggeredPlans(t, f) {
			detected := make([]bool, f.trace.NumDays())
			for d := range detected {
				for o := range f.trace.House.Occupants {
					for _, e := range plan.DayReportedEpisodes(f.trace, d, o) {
						if e.Injected && f.model.EpisodeAnomalous(e.Episode) {
							detected[d] = true
							aborted = true
						}
					}
				}
			}
			for _, abort := range []bool{false, true} {
				imp, err := EvaluateImpact(f.trace, plan, f.model, f.ctrl, f.params, f.pricing, EvalOptions{AbortDetectedDays: abort})
				if err != nil {
					t.Fatal(err)
				}
				var reverted []bool
				if abort {
					reverted = detected
				}
				if want := stepOracle(t, f, plan, reverted); !reflect.DeepEqual(imp.Attacked, want) {
					t.Errorf("house %s %s abort=%v: attacked result differs from the per-slot oracle\nday:  %+v\nslot: %+v",
						name, plan.Strategy, abort, imp.Attacked, want)
				}
			}
		}
		if !aborted {
			t.Errorf("house %s: no plan has a detected day, so aborting went unexercised", name)
		}
	}
}

// TestEvaluateImpactBeyondHorizon evaluates a plan made over the first two
// days of a four-day trace: the days past its horizon tell the truth, so
// the impact equals that of the plan extended with truth-telling days.
func TestEvaluateImpactBeyondHorizon(t *testing.T) {
	f := newFixture(t, "A", 4)
	short, err := f.trace.SubTrace(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	cap := Full(f.trace.House)
	pl := &Planner{Trace: short, Model: f.model, Cost: f.cost, Cap: cap, WindowLen: 10}
	plan, err := pl.PlanSHATTER()
	if err != nil {
		t.Fatal(err)
	}
	TriggerAppliances(short, plan, f.model, cap)
	if plan.InjectedSlots(short) == 0 {
		t.Fatal("short plan injected nothing")
	}
	extended := overlayPlan(f.trace, plan)
	for _, abort := range []bool{false, true} {
		opts := EvalOptions{AbortDetectedDays: abort}
		got, err := EvaluateImpact(f.trace, plan, f.model, f.ctrl, f.params, f.pricing, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := EvaluateImpact(f.trace, extended, f.model, f.ctrl, f.params, f.pricing, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("abort=%v: short plan impact differs from the truth-extended plan\nshort:    %+v\nextended: %+v", abort, got, want)
		}
		if got.ExtraCostUSD <= 0 {
			t.Errorf("abort=%v: extra cost %v, want the short plan's days to raise it", abort, got.ExtraCostUSD)
		}
	}
	// The kernel's own beyond-horizon rule: days outside the plan are
	// left untouched.
	for _, d := range []int{-1, 2, 3} {
		day := d
		if day < 0 {
			day = 0
		}
		in := truthDayInput(f.trace, day)
		before := truthDayInput(f.trace, day)
		plan.FalsifyDay(f.trace.House, d, &in)
		if !reflect.DeepEqual(in, before) {
			t.Errorf("day %d: FalsifyDay rewrote a day outside the plan's horizon", d)
		}
	}
}
