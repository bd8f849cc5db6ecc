package core

import (
	"reflect"
	"runtime"
	"testing"

	"github.com/acyd-lab/shatter/internal/scenario"
)

// sweepSpecsForTest is the non-ARAS sweep set the determinism and reuse
// tests share: registry archetypes plus a procedural 12-zone, 4-occupant
// home (the acceptance floor).
func sweepSpecsForTest(t *testing.T) []scenario.Spec {
	t.Helper()
	specs := []scenario.Spec{}
	for _, id := range []string{"studio", "nightshift", "family4", "shared8"} {
		sp, ok := scenario.Get(id)
		if !ok {
			t.Fatalf("builtin scenario %q missing", id)
		}
		specs = append(specs, sp)
	}
	return append(specs, scenario.Synth(12, 4, 7))
}

// zeroElapsed strips the only wall-clock (non-deterministic) field.
func zeroElapsed(points []SweepPoint) []SweepPoint {
	out := append([]SweepPoint(nil), points...)
	for i := range out {
		out[i].Elapsed = 0
	}
	return out
}

// TestScenarioSweepDeterministicAcrossWorkers asserts the engine guarantee
// extends to the sweep: Workers=1 and Workers=N produce identical results
// on non-ARAS worlds.
func TestScenarioSweepDeterministicAcrossWorkers(t *testing.T) {
	specs := sweepSpecsForTest(t)
	cfg := SuiteConfig{Days: 8, TrainDays: 6, Seed: 123, WindowLen: 10}
	cfg.Workers = 1
	seq, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	par, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seqPts, err := seq.ScenarioSweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	parPts, err := par.ScenarioSweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zeroElapsed(seqPts), zeroElapsed(parPts)) {
		t.Errorf("sweep diverges between Workers=1 and Workers=8:\nseq: %+v\npar: %+v",
			zeroElapsed(seqPts), zeroElapsed(parPts))
	}
}

// TestScenarioSweepShapeAndImpact sanity-checks the end-to-end pipeline on
// each world: positive bills, non-negative attack lift, and world shapes
// matching the specs.
func TestScenarioSweepShapeAndImpact(t *testing.T) {
	s, err := NewSuite(SuiteConfig{Days: 8, TrainDays: 6, Seed: 123, WindowLen: 10})
	if err != nil {
		t.Fatal(err)
	}
	specs := sweepSpecsForTest(t)
	points, err := s.ScenarioSweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(specs) {
		t.Fatalf("%d points for %d specs", len(points), len(specs))
	}
	for i, p := range points {
		if p.ScenarioID != specs[i].ID {
			t.Errorf("point %d is %q, want %q", i, p.ScenarioID, specs[i].ID)
		}
		if p.Zones != len(specs[i].Zones) || p.Occupants != len(specs[i].Occupants) {
			t.Errorf("%s: shape %dz/%do, want %dz/%do",
				p.ScenarioID, p.Zones, p.Occupants, len(specs[i].Zones), len(specs[i].Occupants))
		}
		if p.BenignUSD <= 0 {
			t.Errorf("%s: benign bill %v", p.ScenarioID, p.BenignUSD)
		}
		if p.AttackedUSD < p.BenignUSD {
			t.Errorf("%s: attacked %v below benign %v", p.ScenarioID, p.AttackedUSD, p.BenignUSD)
		}
	}
	last := points[len(points)-1]
	if last.Zones < 12 || last.Occupants < 4 {
		t.Errorf("procedural ramp tops out at %dz/%do, want >= 12z/4o", last.Zones, last.Occupants)
	}
}

// TestScenarioSweepReusesArtifacts asserts per-scenario artifact reuse: a
// second sweep over the same specs must not train a single new model or
// add a cache entry, and must not disturb the configured A/B worlds.
func TestScenarioSweepReusesArtifacts(t *testing.T) {
	s := testSuite(t)
	specs := []scenario.Spec{}
	for _, id := range []string{"studio", "nightshift"} {
		sp, _ := scenario.Get(id)
		specs = append(specs, sp)
	}
	specs = append(specs, scenario.Synth(6, 2, 3))
	first, err := s.ScenarioSweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	stats := s.CacheStats()
	if stats.ADMTrainings != int64(len(specs)) {
		t.Errorf("first sweep trained %d models, want %d (one defender per scenario)",
			stats.ADMTrainings, len(specs))
	}
	second, err := s.ScenarioSweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	after := s.CacheStats()
	if after.ADMTrainings != stats.ADMTrainings {
		t.Errorf("re-sweep trained %d new models", after.ADMTrainings-stats.ADMTrainings)
	}
	if after.Entries != stats.Entries {
		t.Errorf("re-sweep grew the cache %d -> %d entries", stats.Entries, after.Entries)
	}
	if !reflect.DeepEqual(zeroElapsed(first), zeroElapsed(second)) {
		t.Error("re-sweep results diverge from the first run")
	}
	// The sweep loads worlds on demand without joining the experiment grid.
	if got := len(s.Worlds); got != 2 {
		t.Errorf("sweep disturbed the configured scenario set: %d worlds", got)
	}
	if s.Trace("studio") == nil {
		t.Error("swept world not reachable via Trace")
	}
}

// TestSweepRetainedHeap bounds what an analysed home keeps resident: a
// ScenarioSweep over SynthFleet(24, seed) × 12 days, measured as the
// post-GC heap with the suite alive minus the same with the suite dropped.
// The bound is about 1.35× the measured 51 KiB per home-day (byte-wide
// IDs, one stay table per ADM holding only each zone's covered arrival
// span, appliance columns and trigger grids a bit per slot, grids only on
// triggered days). With int32 stay cells over every arrival slot and a
// bool per appliance-slot the same sweep kept 99 KiB per home-day; with
// 8-byte IDs, per-ADM zone memos and eager all-false grids, 234 KiB.
func TestSweepRetainedHeap(t *testing.T) {
	const homes, days = 24, 12
	const boundPerHomeDay = 70 << 10
	for _, seed := range []uint64{1, 5} {
		s, err := NewSuite(SuiteConfig{Days: days, TrainDays: 9, Seed: seed, WindowLen: 10})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.ScenarioSweep(scenario.SynthFleet(homes, seed)); err != nil {
			t.Fatal(err)
		}
		alive := postGCHeap()
		runtime.KeepAlive(s)
		s = nil
		retained := float64(alive) - float64(postGCHeap())
		perHomeDay := retained / (homes * days)
		t.Logf("seed %d: %.1f MiB retained, %.0f KiB per home-day", seed, retained/(1<<20), perHomeDay/(1<<10))
		if perHomeDay > boundPerHomeDay {
			t.Errorf("seed %d: sweep retains %.0f KiB per analysed home-day, bound %d KiB", seed, perHomeDay/(1<<10), boundPerHomeDay>>10)
		}
	}
}

// postGCHeap returns the live heap after two forced collections.
func postGCHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
