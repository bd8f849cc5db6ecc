package adm

import (
	"reflect"
	"testing"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/home"
)

// TestObserveDayOrdering: ObserveDay holds no state between days, so it
// imposes no day order — a replayed or earlier day yields the same verdicts
// as the first time — while an out-of-range occupant and short columns are
// still rejected.
func TestObserveDayOrdering(t *testing.T) {
	tr := testTrace(t, "A", 4)
	m, err := Train(tr, Config{Algorithm: KMeans, K: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	det := NewDetector(m)
	zones, acts := tr.Days[1].Zone[0], tr.Days[1].Act[0]
	first, err := det.ObserveDay(1, 0, zones, acts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.ObserveDay(2, 0, tr.Days[2].Zone[0], tr.Days[2].Act[0], nil); err != nil {
		t.Fatal(err)
	}
	replayed, err := det.ObserveDay(1, 0, zones, acts, nil)
	if err != nil {
		t.Fatalf("earlier day after a later one: %v", err)
	}
	if !reflect.DeepEqual(first, replayed) {
		t.Error("a replayed day yields different verdicts")
	}
	if _, err := det.ObserveDay(2, len(tr.House.Occupants), zones, acts, nil); err == nil {
		t.Error("out-of-range occupant accepted")
	}
	if _, err := det.ObserveDay(2, -1, zones, acts, nil); err == nil {
		t.Error("negative occupant accepted")
	}
	if _, err := det.ObserveDay(2, 0, zones[:10], acts[:10], nil); err == nil {
		t.Error("short columns accepted")
	}
}

// TestDetectorObserveDayMatches feeds a trained detector the days in
// reverse order through one reused verdict buffer and pins every day's
// verdicts, in arrival order, to the batch path (DayEpisodes +
// EpisodeAnomalous).
func TestDetectorObserveDayMatches(t *testing.T) {
	house := home.MustHouse("A")
	tr, err := aras.Generate(house, aras.GeneratorConfig{Days: 6, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	train, err := tr.SubTrace(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(DBSCAN)
	cfg.MinPts = 3
	cfg.Eps = 30
	model, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	det := NewDetector(model)
	var got []Verdict
	for d := tr.NumDays() - 1; d >= 0; d-- {
		for o := range house.Occupants {
			var want []Verdict
			for _, e := range tr.DayEpisodes(d, o) {
				want = append(want, Verdict{Episode: e, Anomalous: model.EpisodeAnomalous(e)})
			}
			got, err = det.ObserveDay(d, o, tr.Days[d].Zone[o], tr.Days[d].Act[o], got[:0])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("day %d occupant %d: %d verdicts differ from %d batch", d, o, len(got), len(want))
			}
		}
	}
}
