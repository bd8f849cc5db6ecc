package stream

import (
	"errors"
	"fmt"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/hvac"
)

// DayBlock is one whole home-day of sensor traffic in struct-of-arrays
// layout: parallel per-slot columns of weather and per-occupant zones and
// activities, each aras.SlotsPerDay long, and per-appliance statuses packed
// a bit per slot (aras.ColumnBytes bytes, the frame's own bitset bytes). It is
// the stream's only frame — a source emits one block per home-day, the
// injector rewrites its reported columns in place, and Home.IngestDay
// advances detection and the HVAC plant over the contiguous columns without
// materializing 1440 per-slot Slot views. Slot decodes a block back to slot
// granularity for callers that need it.
type DayBlock struct {
	// Home identifies the emitting home on the fleet bus.
	Home string
	// Day is the day index the block covers; its slots are (Day, 0..1439).
	Day int
	// TempF and CO2PPM are the day's outdoor weather columns.
	TempF  []float64
	CO2PPM []float64
	// TrueZone[o][t] / TrueAct[o][t] are occupant o's ground truth;
	// TrueAppliance[a] the packed column of appliance a's real electrical
	// state (read slot t with aras.Bit).
	TrueZone      [][]home.ZoneID
	TrueAct       [][]home.ActivityID
	TrueAppliance [][]byte
	// RepZone/RepAct/RepAppliance are the reported (believed) columns; they
	// mirror the truth until an Injector falsifies them.
	RepZone      [][]home.ZoneID
	RepAct       [][]home.ActivityID
	RepAppliance [][]byte
}

// BlockSource is Source under its former name.
//
// Deprecated: use Source.
type BlockSource = Source

// ensure sizes the block's columns for a home with the given occupant and
// appliance counts, reusing backing storage where the shape already fits.
func (b *DayBlock) ensure(occupants, appliances int) {
	b.TempF = growFloats(b.TempF)
	b.CO2PPM = growFloats(b.CO2PPM)
	b.TrueZone = growCols(b.TrueZone, occupants, aras.SlotsPerDay)
	b.RepZone = growCols(b.RepZone, occupants, aras.SlotsPerDay)
	b.TrueAct = growCols(b.TrueAct, occupants, aras.SlotsPerDay)
	b.RepAct = growCols(b.RepAct, occupants, aras.SlotsPerDay)
	b.TrueAppliance = growCols(b.TrueAppliance, appliances, aras.ColumnBytes)
	b.RepAppliance = growCols(b.RepAppliance, appliances, aras.ColumnBytes)
}

// shapeErr verifies the block matches a home's occupant/appliance shape with
// full-length columns.
func (b *DayBlock) shapeErr(occupants, appliances int) error {
	if len(b.TempF) != aras.SlotsPerDay || len(b.CO2PPM) != aras.SlotsPerDay {
		return fmt.Errorf("stream: block weather columns sized %d/%d, want %d", len(b.TempF), len(b.CO2PPM), aras.SlotsPerDay)
	}
	if len(b.TrueZone) != occupants || len(b.TrueAct) != occupants ||
		len(b.RepZone) != occupants || len(b.RepAct) != occupants {
		return fmt.Errorf("stream: block occupant columns %d/%d/%d/%d, want %d",
			len(b.TrueZone), len(b.TrueAct), len(b.RepZone), len(b.RepAct), occupants)
	}
	if len(b.TrueAppliance) != appliances || len(b.RepAppliance) != appliances {
		return fmt.Errorf("stream: block appliance columns %d/%d, want %d", len(b.TrueAppliance), len(b.RepAppliance), appliances)
	}
	for o := 0; o < occupants; o++ {
		if len(b.TrueZone[o]) != aras.SlotsPerDay || len(b.TrueAct[o]) != aras.SlotsPerDay ||
			len(b.RepZone[o]) != aras.SlotsPerDay || len(b.RepAct[o]) != aras.SlotsPerDay {
			return fmt.Errorf("stream: block occupant %d column not %d slots", o, aras.SlotsPerDay)
		}
	}
	for a := 0; a < appliances; a++ {
		if len(b.TrueAppliance[a]) != aras.ColumnBytes || len(b.RepAppliance[a]) != aras.ColumnBytes {
			return fmt.Errorf("stream: block appliance %d column not %d bytes", a, aras.ColumnBytes)
		}
	}
	return nil
}

// ErrBadBlockID is returned by IngestDay for a block whose occupancy
// columns hold a zone or activity ID outside the home's tables. The block
// codec checks a frame's checksum, its shape and that every ID fits int8,
// so a frame with such an ID decodes.
var ErrBadBlockID = errors.New("stream: day block ID out of range")

// idErr verifies every occupancy column holds IDs the home's tables can
// index: zone IDs in [0, zones) and activity IDs in [0, home.NumActivities).
// The day kernels index per-zone and per-activity tables by them.
func (b *DayBlock) idErr(zones int) error {
	for o := range b.TrueZone {
		for _, col := range [2][]home.ZoneID{b.TrueZone[o], b.RepZone[o]} {
			for t, z := range col {
				if z < 0 || int(z) >= zones {
					return fmt.Errorf("%w: occupant %d slot %d zone %d, house has %d zones", ErrBadBlockID, o, t, z, zones)
				}
			}
		}
		for _, col := range [2][]home.ActivityID{b.TrueAct[o], b.RepAct[o]} {
			for t, a := range col {
				if a < 0 || a >= home.NumActivities {
					return fmt.Errorf("%w: occupant %d slot %d activity %d", ErrBadBlockID, o, t, a)
				}
			}
		}
	}
	return nil
}

// ErrBadBlockWeather is returned by IngestDay for a block whose weather
// columns hold a value that is not finite or lies outside physical bounds.
// The block codec carries any float64, and one such value would make the
// home's bill NaN or Inf.
var ErrBadBlockWeather = errors.New("stream: day block weather out of range")

// Physical bounds on a block's outdoor weather: temperature from absolute
// zero to 1,000 °F, CO2 from 0 to 10⁶ ppm. Generated weather stays within
// 35 °F of its 84 °F summer mean and 13 ppm of 420.
const (
	minTempF, maxTempF   = -459.67, 1000
	minCO2PPM, maxCO2PPM = 0, 1e6
)

// weatherErr verifies every weather value is finite and within the
// physical bounds; the comparisons also reject NaN.
func (b *DayBlock) weatherErr() error {
	for t, v := range b.TempF {
		if !(v >= minTempF && v <= maxTempF) {
			return fmt.Errorf("%w: slot %d outdoor temperature %v °F", ErrBadBlockWeather, t, v)
		}
	}
	for t, v := range b.CO2PPM {
		if !(v >= minCO2PPM && v <= maxCO2PPM) {
			return fmt.Errorf("%w: slot %d outdoor CO2 %v ppm", ErrBadBlockWeather, t, v)
		}
	}
	return nil
}

// mirrorTruth copies the ground-truth columns into the reported view (the
// benign state an Injector then perturbs).
func (b *DayBlock) mirrorTruth() {
	for o := range b.TrueZone {
		copy(b.RepZone[o], b.TrueZone[o])
		copy(b.RepAct[o], b.TrueAct[o])
	}
	for a := range b.TrueAppliance {
		copy(b.RepAppliance[a], b.TrueAppliance[a])
	}
}

// dayInput views the block's columns as the HVAC day kernel's input: the
// reported columns are the controller's beliefs, the true ones drive the
// plant.
func (b *DayBlock) dayInput() hvac.DayInput {
	return hvac.DayInput{
		OutdoorTempF:      b.TempF,
		OutdoorCO2PPM:     b.CO2PPM,
		BelievedZone:      b.RepZone,
		BelievedAct:       b.RepAct,
		BelievedAppliance: b.RepAppliance,
		ActualZone:        b.TrueZone,
		ActualAct:         b.TrueAct,
		ActualAppliance:   b.TrueAppliance,
	}
}

// Slot decodes minute t of the block into its per-slot reference view.
func (b *DayBlock) Slot(dst *Slot, t int) {
	dst.ensure(len(b.TrueZone), len(b.TrueAppliance))
	dst.Home = b.Home
	dst.Day = b.Day
	dst.Index = t
	dst.OutdoorTempF = b.TempF[t]
	dst.OutdoorCO2PPM = b.CO2PPM[t]
	for o := range b.TrueZone {
		dst.True[o] = OccupantReading{Zone: b.TrueZone[o][t], Activity: b.TrueAct[o][t]}
		dst.Reported[o] = OccupantReading{Zone: b.RepZone[o][t], Activity: b.RepAct[o][t]}
	}
	for a := range b.TrueAppliance {
		dst.TrueAppliance[a] = aras.Bit(b.TrueAppliance[a], t)
		dst.ReportedAppliance[a] = aras.Bit(b.RepAppliance[a], t)
	}
}

func growFloats(b []float64) []float64 {
	if cap(b) < aras.SlotsPerDay {
		return make([]float64, aras.SlotsPerDay)
	}
	return b[:aras.SlotsPerDay]
}

// growCols sizes cols to n columns of size entries each, reusing backing
// storage where it fits.
func growCols[T any](cols [][]T, n, size int) [][]T {
	if cap(cols) < n {
		cols = make([][]T, n)
	}
	cols = cols[:n]
	for i := range cols {
		if cap(cols[i]) < size {
			cols[i] = make([]T, size)
		} else {
			cols[i] = cols[i][:size]
		}
	}
	return cols
}
