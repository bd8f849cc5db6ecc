package testbed

import (
	"math"
	"testing"

	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/scenario"
)

func newSim(t *testing.T) *Simulator {
	t.Helper()
	sim, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestNewBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0
	if _, err := New(cfg); err == nil {
		t.Error("zero scale should error")
	}
}

func TestPlantHeatsUnderLoad(t *testing.T) {
	sim := newSim(t)
	in := sim.NewInputs()
	in.LEDWatts[0] = 10 // bedroom bulbs
	for i := 0; i < 200; i++ {
		sim.Step(in)
	}
	if sim.TempF[0] <= sim.cfg.AmbientF+1 {
		t.Errorf("loaded zone stayed at %v, ambient %v", sim.TempF[0], sim.cfg.AmbientF)
	}
}

func TestPlantCoolsWithFan(t *testing.T) {
	sim := newSim(t)
	in := sim.NewInputs()
	in.LEDWatts[2] = 10
	for i := 0; i < 300; i++ {
		sim.Step(in)
	}
	hot := sim.TempF[2]
	in.FanDuty[2] = 1
	for i := 0; i < 300; i++ {
		sim.Step(in)
	}
	if sim.TempF[2] >= hot {
		t.Errorf("full fan did not cool: %v -> %v", hot, sim.TempF[2])
	}
	// The fan cannot push the zone below ambient.
	if sim.TempF[2] < sim.cfg.AmbientF-0.5 {
		t.Errorf("zone cooled below ambient: %v", sim.TempF[2])
	}
}

func TestUninsulatedZonesLeakHeat(t *testing.T) {
	sim := newSim(t)
	in := sim.NewInputs()
	in.LEDWatts[1] = 15 // heat only the living room
	for i := 0; i < 400; i++ {
		sim.Step(in)
	}
	// Adjacent zones (bedroom index 0, kitchen index 2) warm up through
	// the shared uninsulated walls.
	if sim.TempF[0] <= sim.cfg.AmbientF+0.2 || sim.TempF[2] <= sim.cfg.AmbientF+0.2 {
		t.Errorf("no inter-zone leakage: %v", sim.TempF)
	}
}

func TestSensorNoiseBounded(t *testing.T) {
	sim := newSim(t)
	var worst float64
	for i := 0; i < 500; i++ {
		r, err := sim.ReadTempF(home.Bedroom)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(r - sim.TempF[0]); d > worst {
			worst = d
		}
	}
	if worst == 0 {
		t.Error("sensor reads are noiseless")
	}
	if worst > 3 {
		t.Errorf("sensor noise implausibly large: %v", worst)
	}
	if _, err := sim.ReadTempF(home.Outside); err == nil {
		t.Error("outside has no sensor")
	}
}

func TestIdentifyUnderTwoPercent(t *testing.T) {
	sim := newSim(t)
	model, err := Identify(sim)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's identification achieved <2% error on testbed
	// measurements; the simulated plant must be at least as identifiable.
	if model.FitErrorPct >= 2 {
		t.Errorf("identification error %.2f%%, want < 2%%", model.FitErrorPct)
	}
	// Duty must be monotone in load over the calibrated range.
	for zi := 0; zi < sim.Zones(); zi++ {
		prev := -1.0
		for load := 2.0; load <= 18; load += 2 {
			d := model.DutyForLoad[zi].Eval(load * 0.85)
			if d < prev-0.02 {
				t.Errorf("zone %d: duty not monotone at load %v", zi, load)
			}
			prev = d
		}
	}
}

func TestHeatForRiseEstimator(t *testing.T) {
	sim := newSim(t)
	model, err := Identify(sim)
	if err != nil {
		t.Fatal(err)
	}
	// The fan-off steady rise for a known load should invert back to
	// roughly that load.
	for _, load := range []float64{4, 9, 14} {
		rise := settle(sim, 1, load, 0) - sim.cfg.AmbientF
		est := model.HeatForRise[1].Eval(rise)
		if math.Abs(est-load*0.85) > 0.15*load*0.85+0.3 {
			t.Errorf("load %v: estimated heat %v, want ≈%v", load, est, load*0.85)
		}
	}
}

func TestValidateReproducesAttackIncrease(t *testing.T) {
	res, err := Validate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.FitErrorPct >= 2 {
		t.Errorf("fit error %.2f%%, want < 2%%", res.FitErrorPct)
	}
	// The paper measured a 78% energy increase; the simulated substitute
	// must land in the same regime (a large double-digit increase).
	if res.IncreasePct < 40 {
		t.Errorf("attack increased energy only %.1f%%, want a large increase", res.IncreasePct)
	}
	if res.IncreasePct > 160 {
		t.Errorf("attack increase %.1f%% implausibly large", res.IncreasePct)
	}
	// The attacked run must also violate comfort in occupied zones (the
	// misdirected cooling lets occupied zones overheat).
	if res.Attacked.MaxRiseF <= res.Benign.MaxRiseF {
		t.Errorf("attack should worsen comfort: %.2f vs %.2f", res.Attacked.MaxRiseF, res.Benign.MaxRiseF)
	}
}

func TestRunScenarioLengthMismatch(t *testing.T) {
	sim := newSim(t)
	model, err := Identify(sim)
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{
		Actual:   make([]MinuteLoad, 5),
		Reported: make([]MinuteLoad, 3),
	}
	if _, err := Run(sim, model, sc); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestRigEndToEndBenign(t *testing.T) {
	sim := newSim(t)
	model, err := Identify(sim)
	if err != nil {
		t.Fatal(err)
	}
	rig, err := NewRig(sim, model, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Close()
	sim.Reset()
	loads := []float64{5, 0, 0, 5}
	var total float64
	for i := 0; i < 10; i++ {
		wh, err := rig.Tick(loads, loads)
		if err != nil {
			t.Fatal(err)
		}
		total += wh
	}
	if total <= 0 {
		t.Error("rig consumed no energy")
	}
}

func TestRigMITMForgesKitchen(t *testing.T) {
	sim := newSim(t)
	model, err := Identify(sim)
	if err != nil {
		t.Fatal(err)
	}
	// Benign rig first.
	benignRig, err := NewRig(sim, model, nil)
	if err != nil {
		t.Fatal(err)
	}
	actual := []float64{5, 5, 0, 0} // bedroom + living room
	sim.Reset()
	var benignWh float64
	for i := 0; i < 15; i++ {
		wh, err := benignRig.Tick(actual, actual)
		if err != nil {
			t.Fatal(err)
		}
		benignWh += wh
	}
	benignRig.Close()

	// Attacked rig: MITM rewrites every load report into the kitchen story.
	attackRig, err := NewRig(sim, model, KitchenForgeRewrite(15))
	if err != nil {
		t.Fatal(err)
	}
	defer attackRig.Close()
	sim.Reset()
	var attackedWh float64
	for i := 0; i < 15; i++ {
		// The sensor node publishes the truth; the proxy forges it.
		wh, err := attackRig.Tick(actual, actual)
		if err != nil {
			t.Fatal(err)
		}
		attackedWh += wh
	}
	if attackedWh <= benignWh {
		t.Errorf("MITM attack should waste energy: %.3f vs %.3f Wh", attackedWh, benignWh)
	}
}

func TestNewForHouseMatchesCanonical(t *testing.T) {
	// The canonical build IS the house-A build: same zone count, same
	// derived thermal plant, so New and NewForHouse(A) behave identically.
	a, err := NewForHouse(DefaultConfig(), home.MustHouse("A"))
	if err != nil {
		t.Fatal(err)
	}
	b := newSim(t)
	if a.Zones() != b.Zones() {
		t.Fatalf("zone counts differ: %d vs %d", a.Zones(), b.Zones())
	}
	in := a.NewInputs()
	in.LEDWatts[1] = 8
	in.FanDuty[1] = 0.5
	for i := 0; i < 50; i++ {
		if wa, wb := a.Step(in), b.Step(in); wa != wb {
			t.Fatalf("step %d: energy diverges %v vs %v", i, wa, wb)
		}
	}
	for i := range a.TempF {
		if a.TempF[i] != b.TempF[i] {
			t.Fatalf("zone %d temperature diverges: %v vs %v", i, a.TempF[i], b.TempF[i])
		}
	}
}

func TestValidateHouseOnScenarioWorld(t *testing.T) {
	// The Section VI experiment must run against a non-canonical world: a
	// bigger procedural house scales down to more testbed zones, identifies
	// cleanly, and still shows the attack's energy penalty.
	house, err := scenario.Synth(7, 3, 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewForHouse(DefaultConfig(), house)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Zones() != 7 {
		t.Fatalf("synth world scaled to %d testbed zones, want 7", sim.Zones())
	}
	res, err := ValidateHouse(DefaultConfig(), house)
	if err != nil {
		t.Fatal(err)
	}
	if res.FitErrorPct >= 2 {
		t.Errorf("fit error %.2f%%, want < 2%%", res.FitErrorPct)
	}
	if res.IncreasePct <= 0 {
		t.Errorf("attack decreased energy: %.1f%%", res.IncreasePct)
	}
}
