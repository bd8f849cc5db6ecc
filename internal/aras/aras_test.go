package aras

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"github.com/acyd-lab/shatter/internal/home"
)

func genTrace(t *testing.T, houseName string, days int, seed uint64) *Trace {
	t.Helper()
	h := home.MustHouse(houseName)
	tr, err := Generate(h, GeneratorConfig{Days: days, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestGenerateBadConfig(t *testing.T) {
	h := home.MustHouse("A")
	if _, err := Generate(h, GeneratorConfig{Days: 0}); err == nil {
		t.Error("Days=0 should error")
	}
}

func TestGenerateShape(t *testing.T) {
	tr := genTrace(t, "A", 5, 1)
	if tr.NumDays() != 5 {
		t.Fatalf("days = %d, want 5", tr.NumDays())
	}
	for d := 0; d < 5; d++ {
		day := tr.Days[d]
		if len(day.Zone) != 2 || len(day.Act) != 2 {
			t.Fatalf("day %d: occupant arrays wrong", d)
		}
		for o := 0; o < 2; o++ {
			if len(day.Zone[o]) != SlotsPerDay {
				t.Fatalf("day %d occ %d: %d slots", d, o, len(day.Zone[o]))
			}
		}
		if len(day.Appliance) != 13 {
			t.Fatalf("day %d: %d appliances, want 13", d, len(day.Appliance))
		}
		if len(tr.Weather[d].TempF) != SlotsPerDay {
			t.Fatalf("day %d: weather slots wrong", d)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := genTrace(t, "A", 3, 42)
	b := genTrace(t, "A", 3, 42)
	for d := 0; d < 3; d++ {
		for o := 0; o < 2; o++ {
			for s := 0; s < SlotsPerDay; s++ {
				if a.Days[d].Zone[o][s] != b.Days[d].Zone[o][s] {
					t.Fatalf("seed 42 not deterministic at d=%d o=%d s=%d", d, o, s)
				}
			}
		}
	}
}

func TestGenerateZoneActivityConsistency(t *testing.T) {
	tr := genTrace(t, "A", 4, 7)
	for d := range tr.Days {
		for o := range tr.Days[d].Zone {
			for s := 0; s < SlotsPerDay; s++ {
				act := home.ActivityByID(tr.Days[d].Act[o][s])
				if act.Zone != tr.Days[d].Zone[o][s] {
					t.Fatalf("d=%d o=%d s=%d: activity %v in zone %v",
						d, o, s, act.Name, tr.Days[d].Zone[o][s])
				}
			}
		}
	}
}

func TestGenerateSleepsAtNight(t *testing.T) {
	tr := genTrace(t, "A", 10, 11)
	// At 3 AM every occupant should almost always be asleep in the bedroom.
	asleep := 0
	total := 0
	for d := range tr.Days {
		for o := range tr.Days[d].Zone {
			total++
			if tr.Days[d].Act[o][3*60] == home.Sleeping {
				asleep++
			}
		}
	}
	if asleep < total*8/10 {
		t.Errorf("only %d/%d occupant-days asleep at 3AM", asleep, total)
	}
}

func TestWorkerOutOnWeekdays(t *testing.T) {
	tr := genTrace(t, "A", 14, 13)
	// Occupant 1 (Bob) is a commuter: at 2 PM on weekdays he should usually
	// be outside.
	out, days := 0, 0
	for d := range tr.Days {
		if d%7 >= 5 {
			continue
		}
		days++
		if tr.Days[d].Zone[1][14*60] == home.Outside {
			out++
		}
	}
	if out < days*7/10 {
		t.Errorf("commuter out on %d/%d weekdays at 2PM", out, days)
	}
}

func TestEpisodesPartitionDay(t *testing.T) {
	tr := genTrace(t, "A", 3, 17)
	for d := 0; d < 3; d++ {
		for o := 0; o < 2; o++ {
			eps := tr.DayEpisodes(d, o)
			total := 0
			for i, e := range eps {
				if e.Duration <= 0 {
					t.Fatalf("episode %d has non-positive duration", i)
				}
				if i > 0 && eps[i-1].ArrivalSlot+eps[i-1].Duration != e.ArrivalSlot {
					t.Fatalf("episodes not contiguous at %d", i)
				}
				total += e.Duration
			}
			if total != SlotsPerDay {
				t.Fatalf("episodes cover %d slots, want %d", total, SlotsPerDay)
			}
			if eps[0].ArrivalSlot != 0 {
				t.Fatal("first episode must start at slot 0")
			}
		}
	}
}

func TestEpisodesZoneChanges(t *testing.T) {
	tr := genTrace(t, "A", 2, 19)
	for _, e := range tr.Episodes(0) {
		act := home.ActivityByID(e.Activity)
		if act.Zone != e.Zone {
			t.Fatalf("dominant activity %v inconsistent with zone %v", act.Name, e.Zone)
		}
	}
}

func TestHabitualStructure(t *testing.T) {
	// Kitchen arrivals should concentrate around meal times: the generator
	// must produce clusterable behaviour for the ADM.
	tr := genTrace(t, "A", 30, 23)
	eps := tr.Episodes(0)
	mealArrivals := 0
	kitchenTotal := 0
	for _, e := range eps {
		if e.Zone != home.Kitchen {
			continue
		}
		kitchenTotal++
		m := e.ArrivalSlot
		if (m > 6*60 && m < 10*60) || (m > 11*60+30 && m < 14*60) || (m > 17*60 && m < 20*60+30) {
			mealArrivals++
		}
	}
	if kitchenTotal == 0 {
		t.Fatal("no kitchen episodes generated")
	}
	if mealArrivals < kitchenTotal*3/4 {
		t.Errorf("only %d/%d kitchen arrivals near meal times", mealArrivals, kitchenTotal)
	}
}

func TestAppliancesFollowActivities(t *testing.T) {
	tr := genTrace(t, "A", 10, 29)
	// Whenever the dishwasher is on, someone should be (or have recently
	// been) washing dishes. Check the converse direction: during washing
	// dishes blocks the dishwasher runs.
	hits, blocks := 0, 0
	for d := range tr.Days {
		for o := range tr.Days[d].Act {
			for s := 0; s < SlotsPerDay; s++ {
				if tr.Days[d].Act[o][s] == home.WashingDishes {
					blocks++
					if Bit(tr.Days[d].Appliance[2], s) { // dishwasher
						hits++
					}
				}
			}
		}
	}
	if blocks == 0 {
		t.Fatal("no washing-dishes slots generated")
	}
	if hits < blocks*9/10 {
		t.Errorf("dishwasher on during %d/%d washing slots", hits, blocks)
	}
}

func TestOccupancyCount(t *testing.T) {
	tr := genTrace(t, "A", 2, 31)
	for s := 0; s < SlotsPerDay; s += 60 {
		sum := 0
		for z := home.ZoneID(0); z < home.NumZones; z++ {
			sum += tr.OccupancyCount(0, s, z)
		}
		if sum != 2 {
			t.Fatalf("slot %d: total occupancy %d, want 2", s, sum)
		}
	}
}

func TestSubTrace(t *testing.T) {
	tr := genTrace(t, "A", 10, 37)
	sub, err := tr.SubTrace(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumDays() != 5 {
		t.Errorf("subtrace days = %d, want 5", sub.NumDays())
	}
	if _, err := tr.SubTrace(5, 3); err == nil {
		t.Error("inverted range should error")
	}
	if _, err := tr.SubTrace(0, 11); err == nil {
		t.Error("out-of-range should error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := genTrace(t, "A", 2, 41)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, tr.House)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 2; d++ {
		for o := 0; o < 2; o++ {
			for s := 0; s < SlotsPerDay; s++ {
				if got.Days[d].Zone[o][s] != tr.Days[d].Zone[o][s] ||
					got.Days[d].Act[o][s] != tr.Days[d].Act[o][s] {
					t.Fatalf("round trip mismatch d=%d o=%d s=%d", d, o, s)
				}
			}
		}
		for a := range tr.Days[d].Appliance {
			for s := 0; s < SlotsPerDay; s++ {
				if Bit(got.Days[d].Appliance[a], s) != Bit(tr.Days[d].Appliance[a], s) {
					t.Fatalf("appliance round trip mismatch d=%d a=%d s=%d", d, a, s)
				}
			}
		}
	}
}

func TestCSVRejectsWrongHouse(t *testing.T) {
	tr := genTrace(t, "A", 1, 43)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCSV(&buf, home.MustHouse("B")); err == nil {
		t.Error("reading a house-A trace into house B should fail")
	}
}

func TestCSVRejectsGarbage(t *testing.T) {
	h := home.MustHouse("A")
	cases := []string{
		"",
		"bogus,header\n",
		"house,A,days,x,occupants,2,appliances,13\n",
		"house,A,days,1,occupants,9,appliances,13\n",
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c), h); err == nil {
			t.Errorf("case %d: want error for malformed CSV", i)
		}
	}
}

// TestCSVRejectsOutOfRangeIDs holds ReadCSV to the house's tables: a zone
// outside the house or an activity outside [0, home.NumActivities) fails
// with the CSV error instead of being stored (or wrapped into a byte-wide
// ID), and the largest valid IDs decode as written.
func TestCSVRejectsOutOfRangeIDs(t *testing.T) {
	h := home.MustHouse("A")
	const header = "house,A,days,1,occupants,2,appliances,13\n"
	for _, row := range []string{
		"0,0,300,9,2,10,0", // zone 300 wraps to 44 in an int8
		"0,0,5,9,2,10,0",   // house A's zones are 0-4
		"0,0,-1,9,2,10,0",
		"0,0,1,9,2,283,0", // activity 283 wraps to 27
		"0,0,1,27,2,10,0",
		"0,0,1,-1,2,10,0",
	} {
		if _, err := ReadCSV(strings.NewReader(header+row+"\n"), h); !errors.Is(err, errCSV) {
			t.Errorf("row %q: got %v, want the CSV error", row, err)
		}
	}
	tr, err := ReadCSV(strings.NewReader(header+"0,7,4,26,0,0,0\n"), h)
	if err != nil {
		t.Fatal(err)
	}
	if z, a := tr.Days[0].Zone[0][7], tr.Days[0].Act[0][7]; z != 4 || a != 26 {
		t.Errorf("decoded zone %d activity %d, want 4 and 26", z, a)
	}
}

func TestWeatherPlausible(t *testing.T) {
	tr := genTrace(t, "A", 5, 47)
	for d := range tr.Weather {
		for _, temp := range tr.Weather[d].TempF {
			if temp < 50 || temp > 110 {
				t.Fatalf("implausible outdoor temp %v", temp)
			}
		}
		for _, co2 := range tr.Weather[d].CO2PPM {
			if co2 < 380 || co2 > 470 {
				t.Fatalf("implausible outdoor CO2 %v", co2)
			}
		}
		// Afternoon should be warmer than pre-dawn.
		if tr.Weather[d].TempF[15*60] <= tr.Weather[d].TempF[4*60] {
			t.Errorf("day %d: 3PM not warmer than 4AM", d)
		}
	}
}

// Property: every generated day partitions each occupant's time into
// episodes whose durations sum to a full day, for arbitrary seeds.
func TestPropertyEpisodesCoverDay(t *testing.T) {
	h := home.MustHouse("B")
	f := func(seed uint64) bool {
		tr, err := Generate(h, GeneratorConfig{Days: 1, Seed: seed})
		if err != nil {
			return false
		}
		for o := range h.Occupants {
			total := 0
			for _, e := range tr.DayEpisodes(0, o) {
				total += e.Duration
			}
			if total != SlotsPerDay {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDatasetName(t *testing.T) {
	if got := DatasetName("A", 0); got != "HAO1" {
		t.Errorf("DatasetName = %q, want HAO1", got)
	}
	if got := DatasetName("B", 1); got != "HBO2" {
		t.Errorf("DatasetName = %q, want HBO2", got)
	}
}
