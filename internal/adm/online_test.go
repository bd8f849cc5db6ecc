package adm

import (
	"reflect"
	"testing"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/home"
)

// testTrace generates a short deterministic trace for a paper house.
func testTrace(t *testing.T, name string, days int) *aras.Trace {
	t.Helper()
	tr, err := aras.Generate(home.MustHouse(name), aras.GeneratorConfig{Days: days, Seed: 2024})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// streamVerdicts replays a trace's occupancy stream through the online
// detector a day at a time and returns all verdicts in (day, occupant,
// arrival) order.
func streamVerdicts(t *testing.T, m *Model, tr *aras.Trace) []Verdict {
	t.Helper()
	det := NewDetector(m)
	var out []Verdict
	for d := 0; d < tr.NumDays(); d++ {
		day := tr.Days[d]
		for o := range day.Zone {
			var err error
			if out, err = det.ObserveDay(d, o, day.Zone[o], day.Act[o], out); err != nil {
				t.Fatalf("ObserveDay(day %d occ %d): %v", d, o, err)
			}
		}
	}
	return out
}

// TestDetectorMatchesBatch pins the online detector's episodes and verdicts
// to the batch path (DayEpisodes + EpisodeAnomalous) on both paper houses.
func TestDetectorMatchesBatch(t *testing.T) {
	for _, name := range []string{"A", "B"} {
		tr := testTrace(t, name, 8)
		train, err := tr.SubTrace(0, 6)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(DBSCAN)
		cfg.MinPts = 3
		cfg.Eps = 30
		m, err := Train(train, cfg)
		if err != nil {
			t.Fatal(err)
		}

		// Batch reference: per-day episodes per occupant, in (day, occupant,
		// arrival) order.
		var batch []Verdict
		for d := 0; d < tr.NumDays(); d++ {
			for o := range tr.House.Occupants {
				for _, e := range tr.DayEpisodes(d, o) {
					batch = append(batch, Verdict{Episode: e, Anomalous: m.EpisodeAnomalous(e)})
				}
			}
		}
		streamed := streamVerdicts(t, m, tr)
		if !reflect.DeepEqual(streamed, batch) {
			t.Fatalf("house %s: %d streamed verdicts differ from %d batch", name, len(streamed), len(batch))
		}
	}
}

// TestDetectorFlushIsEmpty: every verdict comes from ObserveDay, the
// midnight-cut episode included, so the deprecated Flush has nothing left
// to seal — a caller that still adds Flush's verdicts to ObserveDay's must
// not count an episode twice.
func TestDetectorFlushIsEmpty(t *testing.T) {
	tr := testTrace(t, "A", 4)
	m, err := Train(tr, Config{Algorithm: KMeans, K: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	det := NewDetector(m)
	vs, err := det.ObserveDay(0, 0, tr.Days[0].Zone[0], tr.Days[0].Act[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	last := vs[len(vs)-1].Episode
	if last.ArrivalSlot+last.Duration != aras.SlotsPerDay {
		t.Fatalf("day's last verdict ends at slot %d, want midnight", last.ArrivalSlot+last.Duration)
	}
	if got := det.Flush(); len(got) != 0 {
		t.Fatalf("Flush returned %d verdicts after a whole day, want none", len(got))
	}
}
