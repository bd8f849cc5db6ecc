package core

import (
	"time"

	"github.com/acyd-lab/shatter/internal/adm"
	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/attack"
	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/solver"
	"github.com/acyd-lab/shatter/internal/testbed"
)

// TableVRow is one row of the attack-cost comparison (Table V).
type TableVRow struct {
	Framework string // "BIoTA", "Greedy", "SHATTER"
	ADM       string // "Rules-based", "DBSCAN", "K-Means"
	Knowledge string // "-", "All Data", "Partial Data"
	// CostUSD maps house name to total monthly energy cost under attack.
	CostUSD map[string]float64
	// DetectionRate maps house name to the defender ADM's detection rate
	// over the injected episodes.
	DetectionRate map[string]float64
}

// BenignCosts returns the no-attack monthly cost per scenario (the Table V
// reference line; paper: $244.69 for House A). The costs come straight from
// the cached benign simulations.
func (s *Suite) BenignCosts() (map[string]float64, error) {
	houses := s.ScenarioIDs()
	costs := make([]float64, len(houses))
	err := s.runCells(len(houses), func(i int) error {
		res, err := s.benignSim(houses[i], ctrlSHATTER)
		if err != nil {
			return err
		}
		costs[i] = res.TotalCostUSD
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(houses))
	for i, house := range houses {
		out[house] = costs[i]
	}
	return out, nil
}

// evaluateImpact scores a plan against a house with the cached benign leg.
func (s *Suite) evaluateImpact(house string, plan *attack.Plan, defender *adm.Model, opts attack.EvalOptions) (attack.Impact, error) {
	benign, err := s.benignSim(house, ctrlSHATTER)
	if err != nil {
		return attack.Impact{}, err
	}
	opts.Benign = &benign
	return attack.EvaluateImpact(s.trace(house), plan, defender, s.controllerFor(house), s.Params, s.pricingFor(house), opts)
}

// TableV reproduces the BIoTA / Greedy / SHATTER cost grid. Greedy and
// SHATTER rows are evaluated with detected days aborted (a flagged vector's
// impact does not materialise); the BIoTA row reports its raw rule-based
// impact plus the rate at which each clustering ADM would have caught it.
//
// Every (row, house) measurement is an independent cell: 18 cells fan out
// across the worker pool and are folded into the 9 rows afterwards, so the
// row order and contents are identical to a sequential run.
func (s *Suite) TableV() ([]TableVRow, error) {
	houses := s.ScenarioIDs()
	rows := []TableVRow{{
		Framework: "BIoTA",
		ADM:       "Rules-based",
		Knowledge: "-",
	}}
	type cellSpec struct {
		row       int
		house     string
		framework string
		alg       adm.Algorithm
		partial   bool
	}
	var cells []cellSpec
	for _, house := range houses {
		cells = append(cells, cellSpec{row: 0, house: house, framework: "BIoTA", alg: adm.DBSCAN})
	}
	for _, framework := range []string{"Greedy", "SHATTER"} {
		for _, alg := range []adm.Algorithm{adm.DBSCAN, adm.KMeans} {
			for _, partial := range []bool{false, true} {
				knowledge := "All Data"
				if partial {
					knowledge = "Partial Data"
				}
				rows = append(rows, TableVRow{
					Framework: framework,
					ADM:       alg.String(),
					Knowledge: knowledge,
				})
				for _, house := range houses {
					cells = append(cells, cellSpec{
						row: len(rows) - 1, house: house,
						framework: framework, alg: alg, partial: partial,
					})
				}
			}
		}
	}
	type measurement struct {
		cost, det float64
	}
	results := make([]measurement, len(cells))
	err := s.runCells(len(cells), func(i int) error {
		c := cells[i]
		spec := campaignSpec{
			House:    c.house,
			Strategy: c.framework,
			Cap:      attack.Full(s.trace(c.house).House),
		}
		abort := false
		if c.framework != "BIoTA" {
			spec.Alg, spec.Partial = c.alg, c.partial
			abort = true // a flagged vector's impact does not materialise
		}
		imp, err := s.impactFor(spec, c.alg, false, abort)
		if err != nil {
			return err
		}
		results[i] = measurement{cost: imp.Attacked.TotalCostUSD, det: imp.DetectionRate}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range rows {
		rows[i].CostUSD = make(map[string]float64, len(houses))
		rows[i].DetectionRate = make(map[string]float64, len(houses))
	}
	for i, c := range cells {
		rows[c.row].CostUSD[c.house] = results[i].cost
		rows[c.row].DetectionRate[c.house] = results[i].det
	}
	return rows, nil
}

// Fig10Result holds the appliance-triggering comparison for one house:
// daily benign cost, attacked cost without triggering, and attacked cost
// with triggering, plus the trigger-attributable monthly delta.
type Fig10Result struct {
	House          string
	Benign         []float64
	WithoutTrigger []float64
	WithTrigger    []float64
	TriggerExtra   float64
	TriggerPct     float64
}

// Fig10 runs the DBSCAN-ADM SHATTER attack with and without the Algorithm-1
// appliance-triggering stage, one cell per scenario.
func (s *Suite) Fig10() ([]Fig10Result, error) {
	houses := s.ScenarioIDs()
	out := make([]Fig10Result, len(houses))
	err := s.runCells(len(houses), func(i int) error {
		res, err := s.triggerImpact(houses[i], attack.Full(s.trace(houses[i]).House))
		if err != nil {
			return err
		}
		out[i] = *res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// triggerImpact measures the triggering stage's contribution under a
// capability. Both legs — the SHATTER plan without triggering and the
// triggered copy — are memoized campaigns evaluated through the impact
// cache against the same DBSCAN attacker-as-defender.
func (s *Suite) triggerImpact(house string, capability attack.Capability) (*Fig10Result, error) {
	spec := campaignSpec{House: house, Strategy: "SHATTER", Alg: adm.DBSCAN, Cap: capability}
	noTrig, err := s.impactFor(spec, adm.DBSCAN, false, false)
	if err != nil {
		return nil, err
	}
	spec.Trigger = true
	withTrig, err := s.impactFor(spec, adm.DBSCAN, false, false)
	if err != nil {
		return nil, err
	}
	extra := withTrig.Attacked.TotalCostUSD - noTrig.Attacked.TotalCostUSD
	pct := 0.0
	if noTrig.Attacked.TotalCostUSD > 0 {
		pct = extra / noTrig.Attacked.TotalCostUSD * 100
	}
	return &Fig10Result{
		House:          house,
		Benign:         noTrig.Benign.DailyCostUSD,
		WithoutTrigger: noTrig.Attacked.DailyCostUSD,
		WithTrigger:    withTrig.Attacked.DailyCostUSD,
		TriggerExtra:   extra,
		TriggerPct:     pct,
	}, nil
}

// AccessRow is one row of the capability sweeps (Tables VI and VII).
type AccessRow struct {
	Label string
	// ImpactUSD maps house name to the triggering attack's added cost.
	ImpactUSD map[string]float64
}

// TableVI sweeps zone-measurement access: all four zones, three (no
// bathroom), and two (no bathroom or kitchen — dropping the heavy-appliance
// zone collapses the impact, the paper's defensive insight).
func (s *Suite) TableVI() ([]AccessRow, error) {
	zoneSets := []struct {
		label string
		zones []home.ZoneID
	}{
		{"4 Zones", []home.ZoneID{home.Bedroom, home.Livingroom, home.Kitchen, home.Bathroom}},
		{"3 Zones", []home.ZoneID{home.Bedroom, home.Livingroom, home.Kitchen}},
		{"2 Zones", []home.ZoneID{home.Bedroom, home.Livingroom}},
	}
	rows := make([]AccessRow, len(zoneSets))
	err := s.accessSweep(rows, len(zoneSets), func(set int, house string) attack.Capability {
		return attack.Full(s.trace(house).House).WithZones(zoneSets[set].zones...)
	})
	if err != nil {
		return nil, err
	}
	for i, zs := range zoneSets {
		rows[i].Label = zs.label
	}
	return rows, nil
}

// accessSweep runs the Table VI/VII pattern: sets × scenarios triggering
// impacts as independent cells, folded into per-set rows.
func (s *Suite) accessSweep(rows []AccessRow, sets int, capFor func(set int, house string) attack.Capability) error {
	houses := s.ScenarioIDs()
	impacts := make([]float64, sets*len(houses))
	err := s.runCells(len(impacts), func(i int) error {
		set, house := i/len(houses), houses[i%len(houses)]
		res, err := s.triggerImpact(house, capFor(set, house))
		if err != nil {
			return err
		}
		impacts[i] = res.TriggerExtra
		return nil
	})
	if err != nil {
		return err
	}
	for set := 0; set < sets; set++ {
		rows[set].ImpactUSD = make(map[string]float64, len(houses))
		for hi, house := range houses {
			rows[set].ImpactUSD[house] = impacts[set*len(houses)+hi]
		}
	}
	return nil
}

// TableVII sweeps appliance-triggering access: all 13 appliances, 8, and a
// high-wattage 3 (oven, kettle, dryer).
func (s *Suite) TableVII() ([]AccessRow, error) {
	sets := []struct {
		label      string
		appliances []int
	}{
		{"13 Appliances", []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}},
		{"8 Appliances", []int{0, 1, 2, 3, 4, 10, 11, 12}},
		{"3 Appliances", []int{0, 3, 12}},
	}
	rows := make([]AccessRow, len(sets))
	err := s.accessSweep(rows, len(sets), func(set int, house string) attack.Capability {
		return attack.Full(s.trace(house).House).WithAppliances(sets[set].appliances...)
	})
	if err != nil {
		return nil, err
	}
	for i, as := range sets {
		rows[i].Label = as.label
	}
	return rows, nil
}

// ScalePoint is one scalability measurement (Fig 11).
type ScalePoint struct {
	X       int
	Elapsed time.Duration
	Nodes   int
}

// Fig11a measures joint branch-and-bound solve time against the horizon I —
// the exponential profile of Fig 11a. The oracle is a dense five-zone stay
// model (every zone reachable, stays of 2..k minutes) so the search tree's
// branching factor reflects the full schedule space rather than one
// particular evening's habits.
func (s *Suite) Fig11a(horizons []int) ([]ScalePoint, error) {
	oracle := newSyntheticOracle(5)
	zones := make([]home.ZoneID, 5)
	for i := range zones {
		zones[i] = home.ZoneID(i)
	}
	cost := func(_ int, z home.ZoneID) float64 { return float64(int(z)%7) + 0.5 }
	var out []ScalePoint
	for _, h := range horizons {
		w := solver.Window{
			StartSlot: 18 * 60, Length: h,
			StartZone: zones[1], StartArrival: 18*60 - 3,
			Zones: zones,
		}
		start := time.Now()
		_, st, err := solver.BranchAndBound(w, oracle, cost, func(int, home.ZoneID) bool { return true },
			solver.BBConfig{Prune: false, NodeBudget: 50_000_000})
		if err != nil {
			return nil, err
		}
		out = append(out, ScalePoint{X: h, Elapsed: time.Since(start), Nodes: st.NodesExpanded})
	}
	return out, nil
}

// Fig11b measures window-optimisation time against the number of zones
// (horizontal scaling, lookback 10). It times the kernel the attack planner
// runs, solver.OptimizeWindowBands, on the synthetic oracle tabulated as a
// stay-band table.
func (s *Suite) Fig11b(zoneCounts []int) ([]ScalePoint, error) {
	var out []ScalePoint
	for _, n := range zoneCounts {
		bands := newSyntheticOracle(n).stayBands()
		zones := make([]home.ZoneID, n)
		for i := range zones {
			zones[i] = home.ZoneID(i)
		}
		w := solver.Window{
			StartSlot: 600, Length: 10,
			StartZone: zones[0], StartArrival: 595,
			Zones: zones,
		}
		cost := func(_ int, z home.ZoneID) float64 { return float64(int(z)%7) + 0.5 }
		start := time.Now()
		var nodes int
		var ws solver.Workspace
		// Repeat to get a measurable duration for small n.
		const reps = 200
		for r := 0; r < reps; r++ {
			_, st, err := solver.OptimizeWindowBands(&ws, w, bands, cost, func(int, home.ZoneID) bool { return true })
			if err != nil {
				return nil, err
			}
			nodes += st.NodesExpanded
		}
		out = append(out, ScalePoint{X: n, Elapsed: time.Since(start) / reps, Nodes: nodes / reps})
	}
	return out, nil
}

// syntheticOracle gives every zone a simple stay band, for zone-scaling
// benchmarks where no trained model exists: from any arrival, a stay in
// zone z may last up to 5+z%11 minutes and may end after 2 or more.
type syntheticOracle struct{ n int }

const syntheticMinStay = 2

func newSyntheticOracle(n int) syntheticOracle { return syntheticOracle{n: n} }

func (o syntheticOracle) maxStay(z home.ZoneID) int { return 5 + int(z)%11 }

func (o syntheticOracle) MaxStay(_ int, z home.ZoneID, _ int) (int, bool) {
	return o.maxStay(z), true
}

func (o syntheticOracle) InRangeStay(_ int, z home.ZoneID, _ int, stay int) bool {
	return stay >= syntheticMinStay && stay <= o.maxStay(z)
}

// stayBands tabulates the oracle over the n zones and every arrival slot of
// a day: each cell is covered by the one stay interval [2, maxStay(z)].
func (o syntheticOracle) stayBands() *solver.StayBands {
	const slots = aras.SlotsPerDay
	return solver.NewStayBands(o.n, slots, 0, func(z home.ZoneID, add func(int, float64, float64)) {
		for t := range slots {
			add(t, syntheticMinStay, float64(o.maxStay(z)))
		}
	})
}

// TestbedResult wraps the Section VI validation.
type TestbedResult = testbed.ValidationResult

// Testbed runs the full scaled-testbed validation (identification error and
// MITM attack energy increase).
func (s *Suite) Testbed() (TestbedResult, error) {
	return testbed.Validate(testbed.DefaultConfig())
}
