package core

import (
	"reflect"
	"testing"

	"github.com/acyd-lab/shatter/internal/fleetd"
	"github.com/acyd-lab/shatter/internal/scenario"
	"github.com/acyd-lab/shatter/internal/stream"
)

// suiteSpecs resolves the suite's configured scenarios back to their specs.
func suiteSpecs(t *testing.T, s *Suite) []scenario.Spec {
	t.Helper()
	specs := make([]scenario.Spec, len(s.Worlds))
	for i, w := range s.Worlds {
		specs[i] = w.Spec
	}
	return specs
}

// TestStreamBenignMatchesBatchCosts pins the fleet's streamed controller
// accounting to the batch pipeline: each home's streamed bill equals the
// suite's cached benign simulation of the same world.
func TestStreamBenignMatchesBatchCosts(t *testing.T) {
	s, err := NewSuite(SuiteConfig{Days: 4, TrainDays: 2, Seed: 321, WindowLen: 10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Stream(suiteSpecs(t, s), StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	benign, err := s.BenignCosts()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Homes) != len(s.Worlds) {
		t.Fatalf("%d home results for %d worlds", len(res.Homes), len(s.Worlds))
	}
	for _, h := range res.Homes {
		if h.Sim.TotalCostUSD != benign[h.ID] {
			t.Errorf("home %s: streamed bill %v, batch benign %v", h.ID, h.Sim.TotalCostUSD, benign[h.ID])
		}
		if h.Verdicts != 0 || h.Injected != 0 {
			t.Errorf("home %s: benign stream produced detection events: %+v", h.ID, h)
		}
	}
	if res.Stats.TotalCostUSD <= 0 || res.Stats.Events <= res.Stats.Slots {
		t.Errorf("implausible aggregate: %+v", res.Stats)
	}
}

// TestStreamDefendedAttackedMatchesSweep pins the streaming fleet's attack
// and detection accounting to the batch ScenarioSweep over the same worlds:
// attacked bills and detection rates must agree exactly.
func TestStreamDefendedAttackedMatchesSweep(t *testing.T) {
	s, err := NewSuite(SuiteConfig{Days: 6, TrainDays: 4, Seed: 321, WindowLen: 10})
	if err != nil {
		t.Fatal(err)
	}
	specs := suiteSpecs(t, s)
	points, err := s.ScenarioSweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Stream(specs, StreamOptions{Defend: true, Attack: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range points {
		h := res.Homes[i]
		if h.ID != p.ScenarioID {
			t.Fatalf("home %d is %q, sweep point %q", i, h.ID, p.ScenarioID)
		}
		if h.Sim.TotalCostUSD != p.AttackedUSD {
			t.Errorf("home %s: streamed attacked bill %v, sweep %v", h.ID, h.Sim.TotalCostUSD, p.AttackedUSD)
		}
		var rate float64
		if h.Injected > 0 {
			rate = float64(h.Flagged) / float64(h.Injected)
		}
		if rate != p.DetectionRate {
			t.Errorf("home %s: streamed detection rate %v, sweep %v", h.ID, rate, p.DetectionRate)
		}
	}
}

// TestStreamDeterministicAcrossWorkers asserts Workers=1 ≡ Workers=N for a
// defended, attacked fleet that includes an on-demand (unconfigured) world.
func TestStreamDeterministicAcrossWorkers(t *testing.T) {
	specs := []scenario.Spec{}
	for _, id := range []string{"A", "studio"} {
		sp, ok := scenario.Get(id)
		if !ok {
			t.Fatalf("builtin scenario %q missing", id)
		}
		specs = append(specs, sp)
	}
	specs = append(specs, scenario.Synth(6, 2, 3))
	run := func(workers int) stream.FleetResult {
		s, err := NewSuite(SuiteConfig{Days: 6, TrainDays: 4, Seed: 9, WindowLen: 10, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Stream(specs, StreamOptions{Defend: true, Attack: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := run(1), run(8)
	for i := range seq.Homes {
		a, b := seq.Homes[i], par.Homes[i]
		if !reflect.DeepEqual(a, b) {
			t.Errorf("home %s diverges across worker counts:\n%+v\nvs\n%+v", a.ID, a, b)
		}
	}
}

// TestStreamChaosSupervisedMatchesClean drives a defended, attacked suite
// fleet through the supervised fault path and requires the per-home results
// to be byte-identical to the clean run — the resilience layer must change
// the retry counters and nothing else, all the way up at the suite level.
func TestStreamChaosSupervisedMatchesClean(t *testing.T) {
	s, err := NewSuite(SuiteConfig{Days: 6, TrainDays: 4, Seed: 321, WindowLen: 10})
	if err != nil {
		t.Fatal(err)
	}
	specs := suiteSpecs(t, s)
	clean, err := s.Stream(specs, StreamOptions{Defend: true, Attack: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Stream(specs, StreamOptions{
		Defend: true, Attack: true,
		ShardOptions: fleetd.ShardOptions{
			Recover: true,
			// Block-scale probabilities: the default transport moves one
			// frame per home-day, so per-frame rates sit near the day
			// count's inverse.
			Chaos: &stream.FaultConfig{Seed: 17, Drop: 0.2, Duplicate: 0.15, Corrupt: 0.1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Quarantined != 0 {
		t.Fatalf("recoverable chaos quarantined %d homes: %+v", got.Stats.Quarantined, got.Outcomes)
	}
	if got.Stats.Retries == 0 {
		t.Fatal("chaos caused no retries — faults not reaching the suite's fleet")
	}
	for i := range clean.Homes {
		if !reflect.DeepEqual(got.Homes[i], clean.Homes[i]) {
			t.Errorf("home %s diverges under chaos:\n%+v\nvs\n%+v", clean.Homes[i].ID, got.Homes[i], clean.Homes[i])
		}
	}
}

// TestStreamUnboundedWorldsStayUnmaterialized checks a benign fleet over
// scenarios the suite never loaded leaves no world behind — the streaming
// path must not materialize traces it does not need.
func TestStreamUnboundedWorldsStayUnmaterialized(t *testing.T) {
	s, err := NewSuite(SuiteConfig{Days: 4, TrainDays: 2, Seed: 5, WindowLen: 10})
	if err != nil {
		t.Fatal(err)
	}
	sp := scenario.Synth(5, 2, 11)
	if _, err := s.Stream([]scenario.Spec{sp}, StreamOptions{Days: 2}); err != nil {
		t.Fatal(err)
	}
	if s.World(sp.ID) != nil {
		t.Errorf("benign stream materialized world %s", sp.ID)
	}
	if got := s.CacheStats().ADMTrainings; got != 0 {
		t.Errorf("benign stream trained %d models", got)
	}
}
