package hvac

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/home"
)

func testTrace(t *testing.T, houseName string, days int) *aras.Trace {
	t.Helper()
	h := home.MustHouse(houseName)
	tr, err := aras.Generate(h, aras.GeneratorConfig{Days: days, Seed: 1001})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestParamsValidate(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := p
	bad.SupplyAirTempF = 80
	if err := bad.Validate(); err == nil {
		t.Error("supply above setpoint should be invalid")
	}
	bad = p
	bad.CO2SetpointPPM = 400
	if err := bad.Validate(); err == nil {
		t.Error("setpoint below outdoor CO2 should be invalid")
	}
	bad = p
	bad.MaxZoneCFM = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero duct limit should be invalid")
	}
}

func TestPricingRateAt(t *testing.T) {
	pr := DefaultPricing()
	if pr.InPeak(12 * 60) {
		t.Error("noon should be off-peak")
	}
	if !pr.InPeak(18 * 60) {
		t.Error("6PM should be peak")
	}
	if got := pr.RateAt(12*60, 0); got != pr.OffPeakUSDPerKWh {
		t.Errorf("off-peak rate = %v", got)
	}
	// Peak but battery still charged → off-peak rate.
	if got := pr.RateAt(18*60, pr.BatteryKWh-0.5); got != pr.OffPeakUSDPerKWh {
		t.Errorf("battery-covered peak rate = %v", got)
	}
	// Battery exhausted → peak rate.
	if got := pr.RateAt(18*60, pr.BatteryKWh+0.1); got != pr.PeakUSDPerKWh {
		t.Errorf("post-battery peak rate = %v", got)
	}
}

func TestFreshAirForCO2(t *testing.T) {
	// No generation, already at setpoint: no fresh air needed.
	if q := freshAirForCO2(genPPMPerSlot(0, 1000), 1000, 800, 420, 800); q != 0 {
		t.Errorf("no-gen fresh air = %v, want 0", q)
	}
	// Generation pushing above setpoint requires positive airflow.
	q := freshAirForCO2(genPPMPerSlot(0.02, 1000), 1000, 800, 420, 800)
	if q <= 0 {
		t.Errorf("fresh air = %v, want > 0", q)
	}
	// More generation needs more air.
	q2 := freshAirForCO2(genPPMPerSlot(0.04, 1000), 1000, 800, 420, 800)
	if q2 <= q {
		t.Errorf("fresh air not monotone in generation: %v vs %v", q, q2)
	}
	// Zone already below outdoor CO2 (degenerate): nominal flush.
	if q := freshAirForCO2(genPPMPerSlot(0.2, 1000), 1000, 400, 420, 405); q <= 0 {
		t.Error("degenerate dilution should still flush")
	}
}

func TestSupplyAirForHeat(t *testing.T) {
	if q := supplyAirForHeat(0, 72, 55); q != 0 {
		t.Errorf("zero heat needs zero air, got %v", q)
	}
	q := supplyAirForHeat(538.39, 72, 55) // 0.3167*17*100 = 538.39 W ⇒ 100 CFM
	if math.Abs(q-100) > 1e-9 {
		t.Errorf("supply air = %v, want 100", q)
	}
	if q := supplyAirForHeat(100, 55, 72); q != 0 {
		t.Error("inverted temperatures must not produce airflow")
	}
}

func TestMixedAirTemp(t *testing.T) {
	// All return air → return temperature.
	if got := mixedAirTempF(Demand{SupplyCFM: 100, FreshCFM: 0}, 90, 72); got != 72 {
		t.Errorf("all-return mix = %v", got)
	}
	// All fresh air → outdoor temperature.
	if got := mixedAirTempF(Demand{SupplyCFM: 100, FreshCFM: 100}, 90, 72); got != 90 {
		t.Errorf("all-fresh mix = %v", got)
	}
	// Half/half.
	if got := mixedAirTempF(Demand{SupplyCFM: 100, FreshCFM: 50}, 90, 72); got != 81 {
		t.Errorf("half mix = %v, want 81", got)
	}
	// The builtin min/max clamp matches math.Min/math.Max on NaN, signed
	// zeros and infinities.
	special := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(-1), math.Inf(1), -1, 0.5, 2, 100}
	for _, supply := range special {
		for _, fresh := range special {
			for _, out := range special {
				dem := Demand{SupplyCFM: supply, FreshCFM: fresh}
				got, want := mixedAirTempF(dem, out, 72), referenceMixedAirTempF(dem, out, 72)
				if !sameFloat(got, want) {
					t.Errorf("mixedAirTempF(%+v, %v) = %v, reference %v", dem, out, got, want)
				}
			}
		}
	}
}

// sameFloat reports bit equality, treating any two NaNs as equal.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// referenceMixedAirTempF is mixedAirTempF with the math.Min/math.Max clamp.
func referenceMixedAirTempF(dem Demand, outdoorF, returnF float64) float64 {
	if dem.SupplyCFM <= 0 {
		return returnF
	}
	frac := dem.FreshCFM / dem.SupplyCFM
	frac = math.Max(0, math.Min(1, frac))
	return frac*outdoorF + (1-frac)*returnF
}

// ReferenceOccupantSlotCost is the per-slot surrogate arithmetic that the
// hoisted kernel (OccupantLoad, then SlotCost) must reproduce bit for bit:
// every term re-derived on each call, in the original operation order. It
// is exported for the external oracle test, which ranges over scenario's
// procedural houses.
func ReferenceOccupantSlotCost(m *CostModel, occupant int, z home.ZoneID, act home.ActivityID, slot int, outdoorF float64) float64 {
	if !z.Conditioned() {
		return 0
	}
	p := m.params
	zone := m.house.Zone(z)
	demo := m.house.Occupants[occupant].Demographics
	a := home.ActivityByID(act)
	heat := a.HeatW(demo) + p.EnvelopeUAWPerF2*zone.AreaFt2*math.Max(0, outdoorF-p.ZoneSetpointF)
	for _, ai := range m.house.AppliancesForActivity(act) {
		if m.house.Appliances[ai].Zone == z {
			heat += m.house.Appliances[ai].HeatW()
		}
	}
	qs := supplyAirForHeat(heat, p.ZoneSetpointF, p.SupplyAirTempF)
	genPPM := a.CO2Ft3PerMin(demo) * SlotMinutes / zone.VolumeFt3 * 1e6
	qf := 0.0
	if den := p.CO2SetpointPPM - 420; den > 0 {
		qf = genPPM / den * zone.VolumeFt3 / SlotMinutes
	}
	q := math.Min(math.Max(qs, qf), p.MaxZoneCFM)
	fresh := math.Min(qf, q)
	tMix := referenceMixedAirTempF(Demand{SupplyCFM: q, FreshCFM: fresh}, outdoorF, p.ZoneSetpointF)
	watts := q*math.Max(0, tMix-p.SupplyAirTempF)*SensibleHeatFactor + q*p.FanWPerCFM
	kwh := watts * SlotMinutes / 60000
	return kwh * m.rateApprox(slot)
}

func TestSimulateEmptyTrace(t *testing.T) {
	tr := &aras.Trace{House: home.MustHouse("A")}
	ctrl := &SHATTERController{Params: DefaultParams()}
	if _, err := Simulate(tr, ctrl, DefaultParams(), DefaultPricing()); err == nil {
		t.Error("empty trace should error")
	}
}

func TestSimulateBenignPositiveCost(t *testing.T) {
	tr := testTrace(t, "A", 3)
	params := DefaultParams()
	ctrl := &SHATTERController{Params: params}
	res, err := Simulate(tr, ctrl, params, DefaultPricing())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCostUSD <= 0 || res.TotalKWh <= 0 {
		t.Fatalf("cost=%v kWh=%v, want positive", res.TotalCostUSD, res.TotalKWh)
	}
	if len(res.DailyCostUSD) != 3 {
		t.Fatalf("daily series length %d", len(res.DailyCostUSD))
	}
	for d, c := range res.DailyCostUSD {
		if c <= 0 {
			t.Errorf("day %d cost %v", d, c)
		}
	}
	// Decomposition must sum to total energy.
	sum := res.CoilKWh + res.FanKWh + res.ApplianceKWh + res.BaseKWh
	if math.Abs(sum-res.TotalKWh) > 1e-6 {
		t.Errorf("decomposition %v != total %v", sum, res.TotalKWh)
	}
}

func TestASHRAECostlierThanSHATTER(t *testing.T) {
	// The headline Fig 3 shape: the activity-aware controller is cheaper.
	tr := testTrace(t, "A", 5)
	params := DefaultParams()
	pr := DefaultPricing()
	shatter, err := Simulate(tr, &SHATTERController{Params: params}, params, pr)
	if err != nil {
		t.Fatal(err)
	}
	ashrae, err := Simulate(tr, NewASHRAEController(params, tr.House), params, pr)
	if err != nil {
		t.Fatal(err)
	}
	if shatter.TotalCostUSD >= ashrae.TotalCostUSD {
		t.Fatalf("SHATTER (%v) should undercut ASHRAE (%v)", shatter.TotalCostUSD, ashrae.TotalCostUSD)
	}
	savings := 1 - shatter.TotalCostUSD/ashrae.TotalCostUSD
	if savings < 0.15 {
		t.Errorf("savings only %.1f%%, want a substantial gap", savings*100)
	}
	// Per-day dominance (Fig 3 shows ASHRAE above SHATTER on every day).
	for d := range shatter.DailyCostUSD {
		if shatter.DailyCostUSD[d] >= ashrae.DailyCostUSD[d] {
			t.Errorf("day %d: SHATTER %.2f !< ASHRAE %.2f", d, shatter.DailyCostUSD[d], ashrae.DailyCostUSD[d])
		}
	}
}

func TestHouseBCheaperThanHouseA(t *testing.T) {
	params := DefaultParams()
	pr := DefaultPricing()
	trA := testTrace(t, "A", 5)
	trB := testTrace(t, "B", 5)
	resA, err := Simulate(trA, &SHATTERController{Params: params}, params, pr)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := Simulate(trB, &SHATTERController{Params: params}, params, pr)
	if err != nil {
		t.Fatal(err)
	}
	if resB.TotalCostUSD >= resA.TotalCostUSD {
		t.Errorf("house B (%v) should be cheaper than house A (%v)", resB.TotalCostUSD, resA.TotalCostUSD)
	}
}

// applianceStatus returns a believed-status slice for the house with the
// listed appliances on, for controller unit tests.
func applianceStatus(h *home.House, on ...int) []bool {
	st := make([]bool, len(h.Appliances))
	for _, a := range on {
		st[a] = true
	}
	return st
}

func TestSHATTERZeroWhenEmpty(t *testing.T) {
	h := home.MustHouse("A")
	params := DefaultParams()
	ctrl := &SHATTERController{Params: params}
	obs := []OccupantObs{
		{Zone: home.Outside, Activity: home.GoingOut},
		{Zone: home.Outside, Activity: home.GoingOut},
	}
	cond := ZoneConditions{OutdoorTempF: 90, OutdoorCO2PPM: 420, ZoneCO2PPM: make([]float64, 5)}
	for _, d := range ctrl.Plan(h, obs, applianceStatus(h), cond) {
		if d.SupplyCFM != 0 {
			t.Fatal("empty home must get no supply air under demand control")
		}
	}
}

func TestSHATTERSuppliesOccupiedZoneOnly(t *testing.T) {
	h := home.MustHouse("A")
	params := DefaultParams()
	ctrl := &SHATTERController{Params: params}
	obs := []OccupantObs{
		{Zone: home.Kitchen, Activity: home.PreparingDinner},
		{Zone: home.Outside, Activity: home.GoingOut},
	}
	co2 := []float64{420, 420, 420, 420, 420}
	cond := ZoneConditions{OutdoorTempF: 90, OutdoorCO2PPM: 420, ZoneCO2PPM: co2}
	demands := ctrl.Plan(h, obs, applianceStatus(h), cond)
	if demands[home.Kitchen].SupplyCFM <= 0 {
		t.Error("occupied kitchen must receive supply air")
	}
	for _, z := range []home.ZoneID{home.Bedroom, home.Livingroom, home.Bathroom} {
		if demands[z].SupplyCFM != 0 {
			t.Errorf("unoccupied %v received air", z)
		}
	}
}

func TestSHATTERActivityIntensityMatters(t *testing.T) {
	h := home.MustHouse("A")
	params := DefaultParams()
	ctrl := &SHATTERController{Params: params}
	cond := ZoneConditions{OutdoorTempF: 90, OutdoorCO2PPM: 420, ZoneCO2PPM: make([]float64, 5)}
	cook := []OccupantObs{{Zone: home.Kitchen, Activity: home.PreparingDinner}, {Zone: home.Outside}}
	eat := []OccupantObs{{Zone: home.Kitchen, Activity: home.HavingLunch}, {Zone: home.Outside}}
	qCook := ctrl.Plan(h, cook, applianceStatus(h), cond)[home.Kitchen].SupplyCFM
	qEat := ctrl.Plan(h, eat, applianceStatus(h), cond)[home.Kitchen].SupplyCFM
	if qCook <= qEat {
		t.Errorf("cooking (%v CFM) should demand more air than eating (%v CFM)", qCook, qEat)
	}
}

func TestSHATTERApplianceLoadMatters(t *testing.T) {
	h := home.MustHouse("A")
	params := DefaultParams()
	ctrl := &SHATTERController{Params: params}
	cond := ZoneConditions{OutdoorTempF: 90, OutdoorCO2PPM: 420, ZoneCO2PPM: make([]float64, 5)}
	obs := []OccupantObs{{Zone: home.Kitchen, Activity: home.HavingLunch}, {Zone: home.Outside}}
	q0 := ctrl.Plan(h, obs, applianceStatus(h), cond)[home.Kitchen].SupplyCFM
	q1 := ctrl.Plan(h, obs, applianceStatus(h, 0), cond)[home.Kitchen].SupplyCFM // oven on
	if q1 <= q0 {
		t.Errorf("oven-on demand (%v) should exceed oven-off (%v)", q1, q0)
	}
}

func TestASHRAEAreaTermAlwaysOnWhenHome(t *testing.T) {
	h := home.MustHouse("A")
	params := DefaultParams()
	ctrl := NewASHRAEController(params, h)
	cond := ZoneConditions{OutdoorTempF: 90, OutdoorCO2PPM: 420, ZoneCO2PPM: make([]float64, 5)}
	// One occupant in the bedroom: ASHRAE still ventilates every zone.
	obs := []OccupantObs{{Zone: home.Bedroom, Activity: home.Sleeping}, {Zone: home.Outside}}
	demands := ctrl.Plan(h, obs, applianceStatus(h), cond)
	for _, z := range []home.ZoneID{home.Bedroom, home.Livingroom, home.Kitchen, home.Bathroom} {
		if demands[z].FreshCFM <= 0 {
			t.Errorf("ASHRAE should ventilate %v while home is occupied", z)
		}
	}
	// Nobody home: no air at all.
	away := []OccupantObs{{Zone: home.Outside}, {Zone: home.Outside}}
	for _, d := range ctrl.Plan(h, away, applianceStatus(h), cond) {
		if d.SupplyCFM != 0 {
			t.Error("ASHRAE unoccupied mode should shut off")
		}
	}
}

func TestCostModelOrderings(t *testing.T) {
	h := home.MustHouse("A")
	m := NewCostModel(h, DefaultParams(), DefaultPricing())
	// Kitchen with its most intense activity should be the most expensive
	// zone (the case-study premise).
	costs := map[home.ZoneID]float64{}
	for _, z := range []home.ZoneID{home.Bedroom, home.Livingroom, home.Kitchen, home.Bathroom} {
		costs[z] = m.OccupantSlotCost(0, z, home.MostIntenseActivityInZone(z), 12*60, 84)
	}
	for _, z := range []home.ZoneID{home.Bedroom, home.Bathroom} {
		if costs[home.Kitchen] <= costs[z] {
			t.Errorf("kitchen cost %v not above %v cost %v", costs[home.Kitchen], z, costs[z])
		}
	}
	// Outside costs nothing.
	if m.OccupantSlotCost(0, home.Outside, home.GoingOut, 12*60, 84) != 0 {
		t.Error("outside should cost 0")
	}
	// Peak slot costs more than off-peak.
	offPeak := m.OccupantSlotCost(0, home.Kitchen, home.PreparingDinner, 12*60, 84)
	peak := m.OccupantSlotCost(0, home.Kitchen, home.PreparingDinner, 18*60, 84)
	if peak <= offPeak {
		t.Errorf("peak %v should exceed off-peak %v", peak, offPeak)
	}
}

func TestApplianceSlotCost(t *testing.T) {
	h := home.MustHouse("A")
	m := NewCostModel(h, DefaultParams(), DefaultPricing())
	oven := m.ApplianceSlotCost(0, 18*60, 84)
	stereo := m.ApplianceSlotCost(6, 18*60, 84)
	if oven <= stereo {
		t.Errorf("oven (%v) should cost more than stereo (%v)", oven, stereo)
	}
	if oven <= 0 {
		t.Error("appliance cost must be positive")
	}
}

// Property: the plant CO2 never drops below the outdoor level during
// benign simulation (dilution cannot undershoot the source).
func TestPropertyCO2AboveOutdoor(t *testing.T) {
	tr := testTrace(t, "A", 1)
	params := DefaultParams()
	sim, err := NewSim(tr.House, &SHATTERController{Params: params}, params, DefaultPricing())
	if err != nil {
		t.Fatal(err)
	}
	in := newStepInput(tr.House)
	for tslot := 0; tslot < aras.SlotsPerDay; tslot++ {
		fillTruth(&in, tr, 0, tslot)
		sim.Step(in)
		for zi, c := range sim.ZoneCO2() {
			if home.ZoneID(zi).Conditioned() && c < 380 {
				t.Fatalf("slot %d zone %d CO2 %v below plausible floor", tslot, zi, c)
			}
		}
	}
}

// Property: fresh airflow required is monotone non-decreasing in the
// generation rate for arbitrary plausible states.
func TestPropertyFreshAirMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		g1 := float64(seed%100) / 1000
		g2 := g1 + 0.01
		q1 := freshAirForCO2(genPPMPerSlot(g1, 1000), 1000, 700, 420, 800)
		q2 := freshAirForCO2(genPPMPerSlot(g2, 1000), 1000, 700, 420, 800)
		return q2 >= q1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
