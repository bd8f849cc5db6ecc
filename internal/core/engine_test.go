package core

import (
	"errors"
	"reflect"
	"testing"

	"github.com/acyd-lab/shatter/internal/adm"
	"github.com/acyd-lab/shatter/internal/attack"
)

// TestParallelMatchesSequential asserts the engine's central guarantee:
// a Workers=1 suite and a wide-pool suite produce identical experiment
// results, table for table.
func TestParallelMatchesSequential(t *testing.T) {
	cfg := SuiteConfig{Days: 12, TrainDays: 9, Seed: 99, WindowLen: 10}
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

	seqIV, err := seq.TableIV()
	if err != nil {
		t.Fatal(err)
	}
	parIV, err := par.TableIV()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqIV, parIV) {
		t.Errorf("TableIV diverges between Workers=1 and Workers=8:\nseq: %+v\npar: %+v", seqIV, parIV)
	}

	seqV, err := seq.TableV()
	if err != nil {
		t.Fatal(err)
	}
	parV, err := par.TableV()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqV, parV) {
		t.Errorf("TableV diverges between Workers=1 and Workers=8:\nseq: %+v\npar: %+v", seqV, parV)
	}
}

// TestADMCacheTrainsOnce asserts that repeated trainADM calls return the
// same trained model without retraining, and that the experiment grid's
// training count equals the number of distinct (house, alg, prefix) keys.
func TestADMCacheTrainsOnce(t *testing.T) {
	s := testSuite(t)
	m1, err := s.trainADM("A", adm.DBSCAN, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.CacheStats().ADMTrainings; got != 1 {
		t.Fatalf("first training: count %d, want 1", got)
	}
	m2, err := s.trainADM("A", adm.DBSCAN, false)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("cache returned a different model instance for the same key")
	}
	if got := s.CacheStats().ADMTrainings; got != 1 {
		t.Errorf("repeated training: count %d, want 1 (cache miss)", got)
	}

	// The whole Table IV + Table V grid needs only the distinct keys:
	// 2 houses × 2 algorithms × 2 prefixes (full, partial).
	if _, err := s.TableIV(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TableV(); err != nil {
		t.Fatal(err)
	}
	if got := s.CacheStats().ADMTrainings; got != 8 {
		t.Errorf("after TableIV+TableV: %d trainings, want 8 distinct models", got)
	}
	// Re-running the experiments must not train anything new.
	if _, err := s.TableIV(); err != nil {
		t.Fatal(err)
	}
	if got := s.CacheStats().ADMTrainings; got != 8 {
		t.Errorf("after repeated TableIV: %d trainings, want 8", got)
	}
}

// TestRunCellsErrorPropagation checks first-error-wins cancellation.
func TestRunCellsErrorPropagation(t *testing.T) {
	s := testSuite(t)
	sentinel := errors.New("cell failed")
	for _, workers := range []int{1, 4} {
		s.Config.Workers = workers
		err := s.runCells(32, func(i int) error {
			if i == 5 || i == 20 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Errorf("workers=%d: got %v, want sentinel", workers, err)
		}
	}
	s.Config.Workers = 0
	if err := s.runCells(8, func(int) error { return nil }); err != nil {
		t.Errorf("all-ok run returned %v", err)
	}
}

// TestCampaignCacheReuse asserts the plan-level memoization contract:
// grid cells that share (scenario, strategy, knowledge, capability) share
// one planned campaign; the triggered variant is a distinct cached entry
// built from the untriggered plan's reported streams without re-planning;
// impact evaluations are cached; and slot-restricted (unkeyable)
// capabilities bypass the cache entirely.
func TestCampaignCacheReuse(t *testing.T) {
	s := testSuite(t)
	spec := campaignSpec{
		House:    "A",
		Strategy: "SHATTER",
		Alg:      adm.DBSCAN,
		Cap:      attack.Full(s.Trace("A").House),
	}
	c1, err := s.campaignFor(spec)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.campaignFor(spec)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("same spec returned distinct campaigns (cache miss)")
	}
	trig := spec
	trig.Trigger = true
	ct, err := s.campaignFor(trig)
	if err != nil {
		t.Fatal(err)
	}
	if ct == c1 {
		t.Error("triggered spec must be a distinct campaign")
	}
	if &ct.plan.RepZone[0][0][0] != &c1.plan.RepZone[0][0][0] {
		t.Error("triggered campaign should share the untriggered reported streams (clone, not re-plan)")
	}
	if c1.plan.TriggeredSlots() != 0 {
		t.Error("untriggered cache entry was mutated by the triggering stage")
	}
	if ct.triggered == 0 || ct.plan.TriggeredSlots() != ct.triggered {
		t.Errorf("triggered campaign bookkeeping: %d marked vs %d counted",
			ct.plan.TriggeredSlots(), ct.triggered)
	}

	entries := s.CacheStats().Entries
	imp1, err := s.impactFor(spec, adm.DBSCAN, false, false)
	if err != nil {
		t.Fatal(err)
	}
	grew := s.CacheStats().Entries
	if grew <= entries {
		t.Error("first impact evaluation should add a cache entry")
	}
	imp2, err := s.impactFor(spec, adm.DBSCAN, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if s.CacheStats().Entries != grew {
		t.Error("repeated impact evaluation grew the cache")
	}
	if !reflect.DeepEqual(imp1, imp2) {
		t.Error("cached impact diverges from the first evaluation")
	}

	// Slot-restricted capabilities carry a func and cannot be keyed: the
	// campaign is planned fresh each call and never cached.
	restricted := spec
	restricted.Cap = attack.Full(s.Trace("A").House)
	restricted.Cap.SlotAllowed = func(slot int) bool { return slot >= 600 }
	entries = s.CacheStats().Entries
	r1, err := s.campaignFor(restricted)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.campaignFor(restricted)
	if err != nil {
		t.Fatal(err)
	}
	if r1 == r2 {
		t.Error("unkeyable capability should plan fresh campaigns")
	}
	if s.CacheStats().Entries != entries {
		t.Error("unkeyable campaign leaked into the cache")
	}
}
