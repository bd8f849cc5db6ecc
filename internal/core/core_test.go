package core

import (
	"math"
	"reflect"
	"testing"

	"github.com/acyd-lab/shatter/internal/adm"
	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/solver"
)

// testSuite builds a reduced-size suite so the full experiment matrix runs
// quickly in CI.
func testSuite(t *testing.T) *Suite {
	t.Helper()
	s, err := NewSuite(SuiteConfig{Days: 12, TrainDays: 9, Seed: 99, WindowLen: 10})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSuiteValidation(t *testing.T) {
	if _, err := NewSuite(SuiteConfig{Days: 1, TrainDays: 1}); err == nil {
		t.Error("Days=1 should fail")
	}
	if _, err := NewSuite(SuiteConfig{Days: 10, TrainDays: 10}); err == nil {
		t.Error("TrainDays == Days should fail")
	}
	if _, err := NewSuite(SuiteConfig{Days: 10, TrainDays: 8, WindowLen: -1}); err == nil {
		t.Error("negative WindowLen should fail")
	}
	if _, err := NewSuite(SuiteConfig{Days: 10, TrainDays: 8, Scenarios: []string{"nope"}}); err == nil {
		t.Error("unknown scenario should fail")
	}
	if _, err := NewSuite(SuiteConfig{Days: 10, TrainDays: 8, Scenarios: []string{"A", "A"}}); err == nil {
		t.Error("duplicate scenario should fail")
	}
	// Validate is usable standalone (the CLI front-ends call it directly).
	if err := (SuiteConfig{Days: 10, TrainDays: 8}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestFig3Shape(t *testing.T) {
	s := testSuite(t)
	results, err := s.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d houses", len(results))
	}
	for _, r := range results {
		if r.SavingsPct < 20 || r.SavingsPct > 80 {
			t.Errorf("house %s savings %.1f%%, want the paper's ~50%% regime", r.House, r.SavingsPct)
		}
		for d := range r.SHATTER {
			if r.SHATTER[d] >= r.ASHRAE[d] {
				t.Errorf("house %s day %d: SHATTER %.2f !< ASHRAE %.2f", r.House, d, r.SHATTER[d], r.ASHRAE[d])
			}
		}
	}
}

func TestFig4Sweeps(t *testing.T) {
	s := testSuite(t)
	results, err := s.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d sweeps", len(results))
	}
	for _, r := range results {
		if len(r.Points) < 3 {
			t.Errorf("%v sweep too short: %d points", r.Algorithm, len(r.Points))
		}
	}
}

func TestFig5Progressive(t *testing.T) {
	s := testSuite(t)
	results, err := s.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 { // 2 algorithms × 2 houses × 2 occupants
		t.Fatalf("%d curves, want 8", len(results))
	}
	for _, r := range results {
		if len(r.Points) == 0 {
			t.Errorf("%s/%v: empty curve", r.Dataset, r.Algorithm)
			continue
		}
		for _, p := range r.Points {
			if math.IsNaN(p.F1) || p.F1 < 0 || p.F1 > 1 {
				t.Errorf("%s/%v: bad F1 %v", r.Dataset, r.Algorithm, p.F1)
			}
		}
	}
}

func TestFig6KMeansCoversMore(t *testing.T) {
	s := testSuite(t)
	results, err := s.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	var db, km Fig6Result
	for _, r := range results {
		switch r.Algorithm {
		case adm.DBSCAN:
			db = r
		case adm.KMeans:
			km = r
		}
	}
	if km.Stats.TotalArea <= db.Stats.TotalArea {
		t.Errorf("K-Means area %.0f should exceed DBSCAN %.0f (Fig 6)",
			km.Stats.TotalArea, db.Stats.TotalArea)
	}
	if km.Stats.NoisePruned != 0 {
		t.Errorf("K-Means pruned %d points, want 0", km.Stats.NoisePruned)
	}
	if db.Stats.NoisePruned == 0 {
		t.Error("DBSCAN should prune noise")
	}
}

func TestTableIVGrid(t *testing.T) {
	s := testSuite(t)
	rows, err := s.TableIV()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 { // 2 alg × 2 knowledge × 4 datasets
		t.Fatalf("%d rows, want 16", len(rows))
	}
	for _, r := range rows {
		f1 := r.Metrics.F1()
		if math.IsNaN(f1) || f1 <= 0 {
			t.Errorf("%v/%s/%s: degenerate F1 %v", r.Algorithm, r.Knowledge, r.Dataset, f1)
		}
	}
}

func TestBenignCosts(t *testing.T) {
	s := testSuite(t)
	costs, err := s.BenignCosts()
	if err != nil {
		t.Fatal(err)
	}
	if costs["A"] <= 0 || costs["B"] <= 0 {
		t.Fatalf("non-positive benign costs: %v", costs)
	}
	if costs["B"] >= costs["A"] {
		t.Errorf("house B (%v) should be cheaper than A (%v)", costs["B"], costs["A"])
	}
}

func TestTableVShapes(t *testing.T) {
	s := testSuite(t)
	rows, err := s.TableV()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 { // BIoTA + 2 frameworks × 2 ADM × 2 knowledge
		t.Fatalf("%d rows, want 9", len(rows))
	}
	benign, err := s.BenignCosts()
	if err != nil {
		t.Fatal(err)
	}
	get := func(fw, admName, knowledge string) TableVRow {
		for _, r := range rows {
			if r.Framework == fw && r.ADM == admName && r.Knowledge == knowledge {
				return r
			}
		}
		t.Fatalf("row %s/%s/%s missing", fw, admName, knowledge)
		return TableVRow{}
	}
	biota := rows[0]
	for _, house := range []string{"A", "B"} {
		// BIoTA's raw cost tops everything (unconstrained greedy FDI).
		if biota.CostUSD[house] <= benign[house] {
			t.Errorf("BIoTA cost %v not above benign %v", biota.CostUSD[house], benign[house])
		}
		// The clustering ADM catches the majority of BIoTA's vectors.
		if biota.DetectionRate[house] < 0.5 {
			t.Errorf("house %s: BIoTA detection %.2f, want >= 0.5 (paper: 60-100%%)",
				house, biota.DetectionRate[house])
		}
		// SHATTER with full knowledge beats greedy and raises cost above
		// benign.
		sh := get("SHATTER", "K-Means", "All Data")
		gr := get("Greedy", "K-Means", "All Data")
		// The window-optimised schedule should at least match greedy up to
		// evaluation noise (the surrogate the optimiser maximises is not
		// identical to the simulated bill).
		if sh.CostUSD[house] < gr.CostUSD[house]*0.98 {
			t.Errorf("house %s: SHATTER %v < greedy %v", house, sh.CostUSD[house], gr.CostUSD[house])
		}
		if sh.CostUSD[house] <= benign[house] {
			t.Errorf("house %s: SHATTER %v not above benign %v", house, sh.CostUSD[house], benign[house])
		}
		// Partial knowledge must not materially beat full knowledge (a few
		// percent of noise is possible because the two attacker models
		// shape different schedules; the paper's own Table V has similar
		// wobble).
		shPartial := get("SHATTER", "K-Means", "Partial Data")
		if shPartial.CostUSD[house] > sh.CostUSD[house]*1.05 {
			t.Errorf("house %s: partial knowledge (%v) beat full (%v)",
				house, shPartial.CostUSD[house], sh.CostUSD[house])
		}
	}
}

func TestFig10TriggerAddsCost(t *testing.T) {
	s := testSuite(t)
	results, err := s.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.TriggerExtra <= 0 {
			t.Errorf("house %s: triggering added %v", r.House, r.TriggerExtra)
		}
		if r.TriggerPct < 2 || r.TriggerPct > 80 {
			t.Errorf("house %s: trigger contribution %.1f%%, want the paper's ~20%% regime", r.House, r.TriggerPct)
		}
	}
}

func TestTableVIZoneCollapse(t *testing.T) {
	s := testSuite(t)
	rows, err := s.TableVI()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, house := range []string{"A", "B"} {
		four := rows[0].ImpactUSD[house]
		two := rows[2].ImpactUSD[house]
		if two >= four {
			t.Errorf("house %s: 2-zone impact %v !< 4-zone %v", house, two, four)
		}
		// Dropping the kitchen should collapse the impact drastically
		// (paper: 3.7× / 12×).
		if four > 0 && two > four/2 {
			t.Errorf("house %s: 2-zone impact %v did not collapse vs %v", house, two, four)
		}
	}
}

func TestTableVIIApplianceDegradation(t *testing.T) {
	s := testSuite(t)
	rows, err := s.TableVII()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, house := range []string{"A", "B"} {
		all := rows[0].ImpactUSD[house]
		three := rows[2].ImpactUSD[house]
		if three > all {
			t.Errorf("house %s: 3-appliance impact %v exceeds 13-appliance %v", house, three, all)
		}
		// The three heavy hitters keep a significant share (paper: 93/125).
		if all > 0 && three < all/4 {
			t.Errorf("house %s: 3-appliance impact %v degraded too much vs %v", house, three, all)
		}
	}
}

func TestFig11aExponentialGrowth(t *testing.T) {
	s := testSuite(t)
	points, err := s.Fig11a([]int{4, 6, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("%d points", len(points))
	}
	if points[1].Nodes <= points[0].Nodes || points[2].Nodes <= points[1].Nodes {
		t.Errorf("node counts not increasing: %+v", points)
	}
	growth1 := float64(points[1].Nodes) / float64(points[0].Nodes)
	growth2 := float64(points[2].Nodes) / float64(points[1].Nodes)
	if growth1 < 1.5 || growth2 < 1.5 {
		t.Errorf("growth not super-linear: %v %v", growth1, growth2)
	}
}

func TestFig11bModerateGrowth(t *testing.T) {
	s := testSuite(t)
	points, err := s.Fig11b([]int{4, 8, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("%d points", len(points))
	}
	// Horizontal scaling must stay polynomial: 4×the zones should cost far
	// less than the exponential profile of Fig 11a (well under 50× nodes).
	ratio := float64(points[2].Nodes) / float64(points[0].Nodes)
	if ratio > 50 {
		t.Errorf("zone scaling ratio %v too steep", ratio)
	}
}

// TestSyntheticStayBandsMatchOracle locks Fig 11b's tabulated oracle to the
// synthetic oracle it tabulates: equal stay queries, and a window solved
// over the table equal to the interface DP's, node count included.
func TestSyntheticStayBandsMatchOracle(t *testing.T) {
	for _, n := range []int{4, 24} {
		oracle := newSyntheticOracle(n)
		bands := oracle.stayBands()
		zones := make([]home.ZoneID, n)
		for i := range zones {
			zones[i] = home.ZoneID(i)
			for arr := 0; arr < aras.SlotsPerDay; arr += 7 {
				wantMax, wantOK := oracle.MaxStay(0, zones[i], arr)
				if gotMax, gotOK := bands.MaxStayAt(zones[i], arr); gotMax != wantMax || gotOK != wantOK {
					t.Fatalf("n=%d zone %d arrival %d: MaxStayAt (%d,%v), oracle (%d,%v)", n, i, arr, gotMax, gotOK, wantMax, wantOK)
				}
				for stay := 0; stay < 20; stay++ {
					if got, want := bands.InRange(zones[i], arr, stay), oracle.InRangeStay(0, zones[i], arr, stay); got != want {
						t.Fatalf("n=%d zone %d arrival %d stay %d: InRange %v, oracle %v", n, i, arr, stay, got, want)
					}
				}
			}
		}
		w := solver.Window{StartSlot: 600, Length: 10, StartZone: zones[0], StartArrival: 595, Zones: zones}
		cost := func(slot int, z home.ZoneID) float64 { return float64((int(z)+slot)%7) + 0.5 }
		all := func(int, home.ZoneID) bool { return true }
		var ws solver.Workspace
		want, wantSt, err := solver.OptimizeWindowWS(&ws, w, oracle, cost, all)
		if err != nil {
			t.Fatal(err)
		}
		wantZones := append([]home.ZoneID(nil), want.Zones...)
		got, gotSt, err := solver.OptimizeWindowBands(&ws, w, bands, cost, all)
		if err != nil {
			t.Fatal(err)
		}
		if gotSt != wantSt || got.Value != want.Value || !reflect.DeepEqual(got.Zones, wantZones) {
			t.Errorf("n=%d: bands DP (%+v, %v, %v) != oracle DP (%+v, %v, %v)", n, gotSt, got.Value, got.Zones, wantSt, want.Value, wantZones)
		}
	}
}

func TestCaseStudy(t *testing.T) {
	s := testSuite(t)
	cs, err := s.CaseStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Slots) != 10 {
		t.Fatalf("%d slots", len(cs.Slots))
	}
	// Over the whole day the lookahead schedule must earn at least the
	// greedy schedule and at least reality (δ=0 is always available).
	if cs.DaySHATTERCents < cs.DayGreedyCents-1e-6 {
		t.Errorf("day: SHATTER %.3f¢ < greedy %.3f¢", cs.DaySHATTERCents, cs.DayGreedyCents)
	}
	if cs.DaySHATTERCents < cs.DayActualCents-1e-6 {
		t.Errorf("day: SHATTER %.3f¢ below benign %.3f¢", cs.DaySHATTERCents, cs.DayActualCents)
	}
}

func TestTestbedValidation(t *testing.T) {
	s := testSuite(t)
	res, err := s.Testbed()
	if err != nil {
		t.Fatal(err)
	}
	if res.FitErrorPct >= 2 {
		t.Errorf("fit error %.2f%%", res.FitErrorPct)
	}
	if res.IncreasePct < 40 {
		t.Errorf("testbed attack increase %.1f%%", res.IncreasePct)
	}
}
