package aras

import (
	"reflect"
	"testing"

	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/rng"
)

// slotRuleEpisodes is the per-slot reference AppendDayEpisodes is locked
// against: a stay stays open while the zone repeats and closes on the first
// slot in another zone or at the end of the columns. The dominant activity
// is counted in a map over whatever IDs the column holds: maximum count,
// ties toward the smaller ActivityID.
func slotRuleEpisodes(day, occupant int, zones []home.ZoneID, acts []home.ActivityID) []Episode {
	var out []Episode
	start := 0
	actCount := make(map[home.ActivityID]int)
	for t := 0; t <= len(zones); t++ {
		if t < len(zones) && zones[t] == zones[start] {
			actCount[acts[t]]++
			continue
		}
		dominant, best := home.Other, -1
		for a, c := range actCount {
			if c > best || (c == best && a < dominant) {
				dominant, best = a, c
			}
		}
		out = append(out, Episode{
			Day:         day,
			Occupant:    occupant,
			Zone:        zones[start],
			ArrivalSlot: start,
			Duration:    t - start,
			Activity:    dominant,
		})
		if t < len(zones) {
			start = t
			actCount = map[home.ActivityID]int{acts[t]: 1}
		}
	}
	return out
}

// tieColumns draws one day of columns built to tie: short zone runs over
// three zones and, per run, activities drawn from a pool of two or three
// IDs, so equal top counts are common and the tie rule decides.
func tieColumns(r *rng.Source, pool []home.ActivityID) ([]home.ZoneID, []home.ActivityID) {
	zones := make([]home.ZoneID, SlotsPerDay)
	acts := make([]home.ActivityID, SlotsPerDay)
	for t := 0; t < SlotsPerDay; {
		z := home.ZoneID(r.Intn(3))
		for n := 1 + r.Intn(8); n > 0 && t < SlotsPerDay; n-- {
			zones[t] = z
			acts[t] = pool[r.Intn(len(pool))]
			t++
		}
	}
	return zones, acts
}

// TestAppendDayEpisodesMatchesSlotRule pins the one segmenter to the
// per-slot rule, episode for episode: on both paper houses' traces, and on
// 300 random days full of dominant-activity ties. Nothing downstream reads
// Episode.Activity, so this oracle is what holds the tie rule.
func TestAppendDayEpisodesMatchesSlotRule(t *testing.T) {
	for _, name := range []string{"A", "B"} {
		tr := genTrace(t, name, 6, 41)
		for d := range tr.Days {
			for o := range tr.House.Occupants {
				zones, acts := tr.Days[d].Zone[o], tr.Days[d].Act[o]
				want := slotRuleEpisodes(d, o, zones, acts)
				if got := tr.DayEpisodes(d, o); !reflect.DeepEqual(got, want) {
					t.Fatalf("house %s day %d occupant %d: DayEpisodes differs from the per-slot rule\ngot:  %+v\nwant: %+v", name, d, o, got, want)
				}
			}
		}
	}
	r := rng.New(2305_09669)
	var got []Episode
	for trial := 0; trial < 300; trial++ {
		pool := make([]home.ActivityID, 2+r.Intn(2))
		for i := range pool {
			pool[i] = home.ActivityID(r.Intn(home.NumActivities))
		}
		zones, acts := tieColumns(r, pool)
		want := slotRuleEpisodes(trial, 1, zones, acts)
		// Appending after a previous day's episodes must not disturb them.
		prev := len(got)
		got = AppendDayEpisodes(got, trial, 1, zones, acts)
		if !reflect.DeepEqual(got[prev:], want) {
			t.Fatalf("trial %d (pool %v): segmenter differs from the per-slot rule\ngot:  %+v\nwant: %+v", trial, pool, got[prev:], want)
		}
	}
}

// TestAppendDayEpisodesUnknownActivities: a column may carry activity IDs
// outside the activity table (-1, 27, 99). The segmenter must not panic on
// them and must cut the same stays as the per-slot rule; unknown IDs do not
// vote for the dominant activity, so a stay made only of them is Other.
func TestAppendDayEpisodesUnknownActivities(t *testing.T) {
	r := rng.New(7)
	pool := []home.ActivityID{-1, home.NumActivities, 99, home.Sleeping, home.Cleaning}
	for trial := 0; trial < 100; trial++ {
		zones, acts := tieColumns(r, pool)
		got := AppendDayEpisodes(nil, 0, 0, zones, acts)
		want := slotRuleEpisodes(0, 0, zones, acts)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d episodes, per-slot rule %d", trial, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Zone != w.Zone || g.ArrivalSlot != w.ArrivalSlot || g.Duration != w.Duration {
				t.Fatalf("trial %d episode %d: %+v, per-slot rule %+v", trial, i, g, w)
			}
		}
	}
	zones := make([]home.ZoneID, SlotsPerDay)
	acts := make([]home.ActivityID, SlotsPerDay)
	for i := range acts {
		acts[i] = 99
	}
	got := AppendDayEpisodes(nil, 0, 0, zones, acts)
	if len(got) != 1 || got[0].Duration != SlotsPerDay || got[0].Activity != home.Other {
		t.Fatalf("a day of unknown activities: %+v, want one whole-day Other stay", got)
	}
}
