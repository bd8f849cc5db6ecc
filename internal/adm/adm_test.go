package adm

import (
	"testing"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/home"
)

func trainedModel(t *testing.T, alg Algorithm, days int) (*Model, *aras.Trace) {
	t.Helper()
	h := home.MustHouse("A")
	tr, err := aras.Generate(h, aras.GeneratorConfig{Days: days, Seed: 2024})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(alg)
	if alg == DBSCAN {
		// Modest MinPts and a wider radius for short unit-test traces.
		cfg.MinPts = 4
		cfg.Eps = 30
	}
	m, err := Train(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, tr
}

func TestTrainEmptyTrace(t *testing.T) {
	h := home.MustHouse("A")
	tr := &aras.Trace{House: h}
	if _, err := Train(tr, DefaultConfig(DBSCAN)); err == nil {
		t.Error("empty trace should fail training")
	}
}

func TestAlgorithmString(t *testing.T) {
	if DBSCAN.String() != "DBSCAN" || KMeans.String() != "K-Means" {
		t.Error("algorithm names wrong")
	}
	if Algorithm(9).String() == "" {
		t.Error("unknown algorithm should still render")
	}
}

func TestTrainedModelAcceptsTrainingBehaviour(t *testing.T) {
	for _, alg := range []Algorithm{DBSCAN, KMeans} {
		m, tr := trainedModel(t, alg, 20)
		// The model must accept the bulk of the behaviour it was trained on
		// (DBSCAN prunes noise, so a minority of irregular episodes may be
		// flagged).
		total, flagged := 0, 0
		for o := range tr.House.Occupants {
			for _, e := range tr.Episodes(o) {
				total++
				if m.EpisodeAnomalous(e) {
					flagged++
				}
			}
		}
		if total == 0 {
			t.Fatal("no episodes")
		}
		// DBSCAN legitimately prunes irregular-day behaviour as noise; the
		// bound below only guards against the model rejecting the habitual
		// majority.
		if flagged > total*2/5 {
			t.Errorf("%v: flagged %d/%d of its own training data", alg, flagged, total)
		}
	}
}

func TestKMeansCoversAllTrainingPoints(t *testing.T) {
	// K-Means clusters every sample (no noise), so every training episode
	// is inside some hull — the Fig 6 observation.
	m, tr := trainedModel(t, KMeans, 15)
	for o := range tr.House.Occupants {
		for _, e := range tr.Episodes(o) {
			if m.EpisodeAnomalous(e) {
				t.Fatalf("K-Means ADM flagged its own training episode %+v", e)
			}
		}
	}
}

func TestDBSCANPrunesNoiseKMeansDoesNot(t *testing.T) {
	hDB, trDB := trainedModel(t, DBSCAN, 25)
	hKM, _ := trainedModel(t, KMeans, 25)
	_ = trDB
	sDB, sKM := hDB.Stats(), hKM.Stats()
	if sKM.NoisePruned != 0 {
		t.Errorf("K-Means pruned %d points, want 0", sKM.NoisePruned)
	}
	if sDB.NoisePruned == 0 {
		t.Error("DBSCAN should prune some irregular-day episodes as noise")
	}
	// Fig 6: K-Means hulls cover a larger total area.
	if sKM.TotalArea <= sDB.TotalArea {
		t.Errorf("K-Means area %v should exceed DBSCAN area %v", sKM.TotalArea, sDB.TotalArea)
	}
}

func TestRejectsWildEpisodes(t *testing.T) {
	m, _ := trainedModel(t, DBSCAN, 25)
	// A 3 AM four-hour bathroom stay is not habitual behaviour.
	if m.WithinCluster(0, home.Bathroom, 3*60, 240) {
		t.Error("wild bathroom stay accepted")
	}
	// A 3 AM kitchen visit of an hour likewise.
	if m.WithinCluster(0, home.Kitchen, 3*60+7, 60) {
		t.Error("3AM hour-long kitchen stay accepted")
	}
}

func TestStayRangeAndQueries(t *testing.T) {
	m, tr := trainedModel(t, DBSCAN, 25)
	// Use a real training episode: its stay must be inside [min, max].
	var probe *aras.Episode
	for _, e := range tr.Episodes(0) {
		if e.Zone == home.Bedroom && e.Duration > 30 && !m.EpisodeAnomalous(e) {
			probe = &e
			break
		}
	}
	if probe == nil {
		t.Skip("no accepted bedroom episode found")
	}
	minS, maxS, ok := m.StayRange(0, probe.Zone, probe.ArrivalSlot)
	if !ok {
		t.Fatal("StayRange should cover a training arrival")
	}
	if probe.Duration < minS || probe.Duration > maxS {
		t.Errorf("training stay %d outside [%d,%d]", probe.Duration, minS, maxS)
	}
	gotMax, ok := m.MaxStay(0, probe.Zone, probe.ArrivalSlot)
	if !ok || gotMax != maxS {
		t.Errorf("MaxStay = %d,%v want %d", gotMax, ok, maxS)
	}
	gotMin, ok := m.MinStay(0, probe.Zone, probe.ArrivalSlot)
	if !ok || gotMin != minS {
		t.Errorf("MinStay = %d,%v want %d", gotMin, ok, minS)
	}
	if !m.InRangeStay(0, probe.Zone, probe.ArrivalSlot, probe.Duration) {
		t.Error("InRangeStay rejects a training stay")
	}
}

func TestStayRangeAnomalousArrival(t *testing.T) {
	m, _ := trainedModel(t, DBSCAN, 20)
	// Nobody arrives in the kitchen at 3:33 AM in training.
	if _, _, ok := m.StayRange(0, home.Kitchen, 3*60+33); ok {
		t.Error("anomalous arrival should have no stay range")
	}
}

// TestConsistent checks Eq 8 on whole days: a day is consistent when none
// of its episodes is anomalous.
func TestConsistent(t *testing.T) {
	m, tr := trainedModel(t, KMeans, 20)
	consistent := func(eps []aras.Episode) bool {
		for _, e := range eps {
			if m.EpisodeAnomalous(e) {
				return false
			}
		}
		return true
	}
	eps := tr.DayEpisodes(5, 0)
	if !consistent(eps) {
		t.Error("K-Means model should accept a training day wholesale")
	}
	// Corrupt one episode.
	bad := make([]aras.Episode, len(eps))
	copy(bad, eps)
	bad[0].Zone = home.Bathroom
	bad[0].ArrivalSlot = 200
	bad[0].Duration = 400
	if consistent(bad) {
		t.Error("corrupted day should be inconsistent")
	}
}

func TestEvaluateMetrics(t *testing.T) {
	m, tr := trainedModel(t, DBSCAN, 25)
	var labeled []LabeledEpisode
	for _, e := range tr.Episodes(0) {
		labeled = append(labeled, LabeledEpisode{Episode: e, Attack: false})
	}
	// Synthesise blatant attacks.
	for i := 0; i < 40; i++ {
		labeled = append(labeled, LabeledEpisode{
			Episode: aras.Episode{
				Occupant:    0,
				Zone:        home.Kitchen,
				ArrivalSlot: 120 + i,
				Duration:    300,
			},
			Attack: true,
		})
	}
	c := Evaluate(m, labeled)
	if c.Recall() < 0.9 {
		t.Errorf("blatant attacks mostly undetected: recall %v", c.Recall())
	}
	if got := DetectionRate(m, labeled); got < 0.9 {
		t.Errorf("detection rate %v", got)
	}
}

func TestDetectionRateNoAttacks(t *testing.T) {
	m, tr := trainedModel(t, DBSCAN, 10)
	var labeled []LabeledEpisode
	for _, e := range tr.Episodes(0)[:5] {
		labeled = append(labeled, LabeledEpisode{Episode: e})
	}
	if DetectionRate(m, labeled) != 0 {
		t.Error("no attacks → rate 0")
	}
}

func TestTuneSweeps(t *testing.T) {
	h := home.MustHouse("A")
	tr, err := aras.Generate(h, aras.GeneratorConfig{Days: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	db := TuneDBSCAN(tr, 0, 20, 5, 30, 5)
	if len(db) == 0 {
		t.Fatal("DBSCAN sweep empty")
	}
	km := TuneKMeans(tr, 0, 3, 2, 30, 4)
	if len(km) == 0 {
		t.Fatal("KMeans sweep empty")
	}
	for _, p := range km {
		if p.Hyperparameter < 2 {
			t.Error("bad hyperparameter recorded")
		}
	}
}

func TestHullsAccessors(t *testing.T) {
	m, _ := trainedModel(t, DBSCAN, 15)
	if len(m.hulls[key{occupant: 0, zone: home.Bedroom}]) == 0 {
		t.Error("bedroom should have hulls")
	}
	if m.hulls[key{occupant: 0, zone: home.ZoneID(99)}] != nil {
		t.Error("unknown zone should have no hulls")
	}
	if len(m.trainingPoints[key{occupant: 0, zone: home.Bedroom}]) == 0 {
		t.Error("bedroom should have training points")
	}
}
