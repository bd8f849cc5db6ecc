// Package aras provides the activity/occupancy dataset substrate for the
// SHATTER reproduction. The original paper evaluates on the ARAS dataset
// (Alemdar et al., reference [5]): per-minute annotations of 27 activities
// for 2 residents in each of 2 houses over a month. That recording is not
// redistributable and the build environment is offline, so this package
// generates synthetic traces from per-occupant daily-routine models that
// preserve the properties the paper's analysis depends on — habitual,
// clusterable (arrival-time, stay-duration) pairs per occupant/zone, with
// day-to-day jitter and occasional irregular days (see DESIGN.md §1).
package aras

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"

	"github.com/acyd-lab/shatter/internal/home"
)

// SlotsPerDay is the number of 1-minute control slots per day (Δt = 1 min).
const SlotsPerDay = 1440

// Day is one day of ground truth for a house: per-occupant zone/activity
// per slot and per-appliance status per slot.
type Day struct {
	// Zone[o][t] is occupant o's zone at slot t.
	Zone [][]home.ZoneID
	// Act[o][t] is occupant o's activity at slot t.
	Act [][]home.ActivityID
	// Appliance[a] is appliance a's on/off column, packed a bit per slot
	// (ColumnBytes bytes; read slot t with Bit(Appliance[a], t)).
	Appliance [][]byte
}

// NewDay allocates a zeroed day for the given occupant and appliance counts.
func NewDay(occupants, appliances int) Day {
	d := Day{
		Zone:      make([][]home.ZoneID, occupants),
		Act:       make([][]home.ActivityID, occupants),
		Appliance: NewColumns(appliances),
	}
	for o := 0; o < occupants; o++ {
		d.Zone[o] = make([]home.ZoneID, SlotsPerDay)
		d.Act[o] = make([]home.ActivityID, SlotsPerDay)
	}
	return d
}

// Weather holds the outdoor boundary conditions for one day.
type Weather struct {
	// TempF[t] is the outdoor dry-bulb temperature (°F) at slot t (P^OT).
	TempF []float64
	// CO2PPM[t] is the outdoor CO2 concentration (ppm) at slot t (P^OC).
	CO2PPM []float64
}

// Trace is a complete multi-day recording for one house.
type Trace struct {
	House   *home.House
	Days    []Day
	Weather []Weather
}

// NumDays returns the number of recorded days.
func (tr *Trace) NumDays() int { return len(tr.Days) }

// Episode is one contiguous stay of an occupant in a zone — the ADM's
// training unit: the (ArrivalSlot, Duration) pair is a point in the
// (arrival-time-of-day, stay-duration) plane of Figs 6-7.
type Episode struct {
	Day      int
	Occupant int
	Zone     home.ZoneID
	// ArrivalSlot is the minute-of-day the stay began (0-1439). Stays that
	// span midnight are split at the day boundary, matching the per-day
	// slot axis the paper plots.
	ArrivalSlot int
	// Duration is the stay length in minutes.
	Duration int
	// Activity is the dominant activity during the stay.
	Activity home.ActivityID
}

// Episodes extracts all stays of one occupant across the whole trace.
func (tr *Trace) Episodes(occupant int) []Episode {
	var out []Episode
	for d, day := range tr.Days {
		out = AppendDayEpisodes(out, d, occupant, day.Zone[occupant], day.Act[occupant])
	}
	return out
}

// DayEpisodes extracts the stays of one occupant on one day.
func (tr *Trace) DayEpisodes(day, occupant int) []Episode {
	return AppendDayEpisodes(nil, day, occupant, tr.Days[day].Zone[occupant], tr.Days[day].Act[occupant])
}

// AppendDayEpisodes appends one occupant's stays on one day to dst and
// returns it: one episode per run of equal zones in the day's columns
// (zones[t], acts[t] for each slot t), in arrival order. The last run ends
// at the end of the columns, so a stay that spans midnight is split there.
// A day's episodes therefore depend on that day's columns alone. It is the
// one zone-run segmenter: the batch extractor, the online detector and the
// attack's reported-episode pass all call it.
func AppendDayEpisodes(dst []Episode, day, occupant int, zones []home.ZoneID, acts []home.ActivityID) []Episode {
	var count [home.NumActivities]int
	start := 0
	for t, z := range zones {
		if z != zones[start] {
			dst = append(dst, Episode{Day: day, Occupant: occupant, Zone: zones[start],
				ArrivalSlot: start, Duration: t - start, Activity: dominant(&count)})
			start = t
		}
		if a := acts[t]; a >= 0 && a < home.NumActivities {
			count[a]++
		}
	}
	if len(zones) > 0 {
		dst = append(dst, Episode{Day: day, Occupant: occupant, Zone: zones[start],
			ArrivalSlot: start, Duration: len(zones) - start, Activity: dominant(&count)})
	}
	return dst
}

// dominant returns a run's dominant activity from its per-activity slot
// counts and zeroes them for the next run. The most frequent activity wins
// and ties go to the smaller ActivityID. IDs outside the activity table are
// not counted, so a run without a known activity is home.Other.
func dominant(count *[home.NumActivities]int) home.ActivityID {
	best, n := home.Other, 0
	for a, c := range count {
		if c > n {
			best, n = home.ActivityID(a), c
		}
	}
	*count = [home.NumActivities]int{}
	return best
}

// OccupancyCount returns the number of occupants in zone z at slot t of day.
func (tr *Trace) OccupancyCount(day, slot int, z home.ZoneID) int {
	n := 0
	for o := range tr.Days[day].Zone {
		if tr.Days[day].Zone[o][slot] == z {
			n++
		}
	}
	return n
}

// SubTrace returns a trace restricted to days [from, to). Weather is sliced
// alongside. The underlying day storage is shared, not copied.
func (tr *Trace) SubTrace(from, to int) (*Trace, error) {
	if from < 0 || to > len(tr.Days) || from >= to {
		return nil, fmt.Errorf("aras: bad day range [%d,%d) of %d", from, to, len(tr.Days))
	}
	return &Trace{House: tr.House, Days: tr.Days[from:to], Weather: tr.Weather[from:to]}, nil
}

// errCSV is the sentinel for malformed trace files.
var errCSV = errors.New("aras: malformed trace CSV")

// WriteCSV encodes the trace (without weather) as CSV: a header row with
// counts followed by one row per (day, slot) holding each occupant's zone
// and activity and a hex bitmask of appliance states.
func (tr *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	occ := len(tr.House.Occupants)
	appl := len(tr.House.Appliances)
	header := []string{"house", tr.House.Name, "days", strconv.Itoa(len(tr.Days)),
		"occupants", strconv.Itoa(occ), "appliances", strconv.Itoa(appl)}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, 2+2*occ+1)
	for d, day := range tr.Days {
		for t := 0; t < SlotsPerDay; t++ {
			row[0] = strconv.Itoa(d)
			row[1] = strconv.Itoa(t)
			for o := 0; o < occ; o++ {
				row[2+2*o] = strconv.Itoa(int(day.Zone[o][t]))
				row[2+2*o+1] = strconv.Itoa(int(day.Act[o][t]))
			}
			var mask uint64
			for a := 0; a < appl; a++ {
				if Bit(day.Appliance[a], t) {
					mask |= 1 << uint(a)
				}
			}
			row[len(row)-1] = strconv.FormatUint(mask, 16)
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV decodes a trace previously written by WriteCSV. The house must be
// supplied by the caller (the CSV stores only its name for validation). A
// zone outside the house or an activity outside [0, home.NumActivities)
// fails the decode.
func ReadCSV(r io.Reader, house *home.House) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("%w: header: %v", errCSV, err)
	}
	if len(header) != 8 || header[0] != "house" {
		return nil, fmt.Errorf("%w: bad header", errCSV)
	}
	if header[1] != house.Name {
		return nil, fmt.Errorf("%w: trace is for house %q, got house %q", errCSV, header[1], house.Name)
	}
	days, err := strconv.Atoi(header[3])
	if err != nil {
		return nil, fmt.Errorf("%w: day count: %v", errCSV, err)
	}
	occ, err := strconv.Atoi(header[5])
	if err != nil || occ != len(house.Occupants) {
		return nil, fmt.Errorf("%w: occupant count mismatch", errCSV)
	}
	appl, err := strconv.Atoi(header[7])
	if err != nil || appl != len(house.Appliances) {
		return nil, fmt.Errorf("%w: appliance count mismatch", errCSV)
	}
	tr := &Trace{House: house, Days: make([]Day, days), Weather: make([]Weather, days)}
	for d := range tr.Days {
		tr.Days[d] = NewDay(occ, appl)
	}
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errCSV, err)
		}
		if len(row) != 2+2*occ+1 {
			return nil, fmt.Errorf("%w: row width %d", errCSV, len(row))
		}
		d, err1 := strconv.Atoi(row[0])
		t, err2 := strconv.Atoi(row[1])
		if err1 != nil || err2 != nil || d < 0 || d >= days || t < 0 || t >= SlotsPerDay {
			return nil, fmt.Errorf("%w: bad day/slot", errCSV)
		}
		for o := 0; o < occ; o++ {
			z, err1 := strconv.Atoi(row[2+2*o])
			a, err2 := strconv.Atoi(row[2+2*o+1])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("%w: bad zone/activity", errCSV)
			}
			if z < 0 || z >= len(house.Zones) || a < 0 || a >= home.NumActivities {
				return nil, fmt.Errorf("%w: day %d slot %d occupant %d: zone %d or activity %d outside the house's tables", errCSV, d, t, o, z, a)
			}
			tr.Days[d].Zone[o][t] = home.ZoneID(z)
			tr.Days[d].Act[o][t] = home.ActivityID(a)
		}
		mask, err := strconv.ParseUint(row[len(row)-1], 16, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: bad appliance mask", errCSV)
		}
		for a := 0; a < appl; a++ {
			SetBit(tr.Days[d].Appliance[a], t, mask&(1<<uint(a)) != 0)
		}
	}
	return tr, nil
}

// DatasetName names the per-occupant splits the paper uses: HAO1 is House A
// Occupant 1, etc.
func DatasetName(house string, occupant int) string {
	return "H" + house + "O" + strconv.Itoa(occupant+1)
}
