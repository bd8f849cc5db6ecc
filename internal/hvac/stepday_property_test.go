package hvac_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/hvac"
	"github.com/acyd-lab/shatter/internal/rng"
	"github.com/acyd-lab/shatter/internal/scenario"
)

// edgeSlots are the change points around the day stepper's 8-slot mask
// blocks (slots 1-8 are the first block, 1425-1432 the last, 1433-1439 the
// tail), plus one slot at every offset mod 8.
var edgeSlots = []int{1, 7, 8, 9, 1432, 1439, 16, 41, 66, 91, 116, 141, 166, 191}

// dayPattern draws one day of columns; each day of the property test uses
// the next pattern in turn.
type dayPattern struct {
	name string
	// changes reports whether a column switches value at slot t (t >= 1).
	changes func(r *rng.Source, t int) bool
	// applianceOn forces every appliance on all day.
	applianceOn bool
}

var dayPatterns = []dayPattern{
	{name: "edges, every column", changes: func(_ *rng.Source, t int) bool { return slices.Contains(edgeSlots, t) }},
	{name: "edges, random columns", changes: func(r *rng.Source, t int) bool { return slices.Contains(edgeSlots, t) && r.Bool(0.4) }},
	{name: "flip every slot", changes: func(*rng.Source, int) bool { return true }},
	{name: "appliances on all day", changes: func(r *rng.Source, _ int) bool { return r.Bool(0.01) }, applianceOn: true},
	{name: "random runs", changes: func(r *rng.Source, _ int) bool { return r.Bool(0.03) }},
}

// drawColumn fills col from slot 0 onward, switching to a different value
// wherever the pattern says so.
func drawColumn[T comparable](col []T, r *rng.Source, p dayPattern, draw func() T) {
	col[0] = draw()
	for t := 1; t < len(col); t++ {
		col[t] = col[t-1]
		if p.changes(r, t) {
			for col[t] == col[t-1] {
				col[t] = draw()
			}
		}
	}
}

// drawDay draws one day of occupancy and appliance columns for the house.
func drawDay(h *home.House, r *rng.Source, p dayPattern) aras.Day {
	day := aras.NewDay(len(h.Occupants), len(h.Appliances))
	for o := range day.Zone {
		drawColumn(day.Zone[o], r, p, func() home.ZoneID { return home.ZoneID(r.Intn(len(h.Zones))) })
		drawColumn(day.Act[o], r, p, func() home.ActivityID { return home.ActivityID(r.Intn(home.NumActivities)) })
	}
	for a := range day.Appliance {
		if p.applianceOn {
			aras.SetRun(day.Appliance[a], 0, aras.SlotsPerDay)
			continue
		}
		on := make([]bool, aras.SlotsPerDay)
		drawColumn(on, r, p, func() bool { return r.Bool(0.5) })
		for t, v := range on {
			aras.SetBit(day.Appliance[a], t, v)
		}
	}
	return day
}

// copyDay returns a deep copy of day in separate slices.
func copyDay(day aras.Day) aras.Day {
	cp := aras.NewDay(len(day.Zone), len(day.Appliance))
	for o := range day.Zone {
		copy(cp.Zone[o], day.Zone[o])
		copy(cp.Act[o], day.Act[o])
	}
	for a := range day.Appliance {
		copy(cp.Appliance[a], day.Appliance[a])
	}
	return cp
}

// resultBits flattens a Result's floats to their bit patterns, so results
// compare bit for bit (NaN payloads and signed zeros included).
func resultBits(res hvac.Result) []uint64 {
	var bits []uint64
	for _, series := range [][]float64{res.DailyCostUSD, res.DailyKWh, res.ZoneCoilKWh,
		{res.CoilKWh, res.FanKWh, res.ApplianceKWh, res.BaseKWh, res.TotalCostUSD, res.TotalKWh}} {
		bits = append(bits, uint64(len(series)))
		for _, v := range series {
			bits = append(bits, math.Float64bits(v))
		}
	}
	return bits
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestStepDayMatchesStepProperty holds the SHATTER day stepper to per-slot
// Step calls, bit for bit, on random columns built to hit its change mask's
// edges: changes at every offset mod 8 and at the 8-slot block and tail
// boundaries (slots 1, 7, 8, 9, 1432, 1439), a value flip on every slot,
// appliances on all day, and random runs. Every registry scenario and
// SynthFleet home runs each pattern with the believed columns aliasing
// the actual slices, as separate copies of them, and drawn independently
// (a falsified view). Zone CO2 is compared after every day and the Result
// at the end.
func TestStepDayMatchesStepProperty(t *testing.T) {
	var specs []scenario.Spec
	for _, id := range scenario.IDs() {
		sp, _ := scenario.Get(id)
		specs = append(specs, sp)
	}
	specs = append(specs, scenario.SynthFleet(8, 77)...)
	params, pricing := hvac.DefaultParams(), hvac.DefaultPricing()
	r := rng.New(20230427)
	for _, sp := range specs {
		h, err := sp.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, believed := range []string{"aliased", "copied", "falsified"} {
			label := fmt.Sprintf("%s/%s", sp.ID, believed)
			slotSim, err := hvac.NewSim(h, &hvac.SHATTERController{Params: params}, params, pricing)
			if err != nil {
				t.Fatal(err)
			}
			daySim, err := hvac.NewSim(h, &hvac.SHATTERController{Params: params}, params, pricing)
			if err != nil {
				t.Fatal(err)
			}
			step := hvac.StepInput{
				Believed:          make([]hvac.OccupantObs, len(h.Occupants)),
				BelievedAppliance: make([]bool, len(h.Appliances)),
				ActualOccupants:   make([]hvac.OccupantObs, len(h.Occupants)),
				ActualAppliance:   make([]bool, len(h.Appliances)),
			}
			for d, p := range dayPatterns {
				actual := drawDay(h, r, p)
				bel := actual
				switch believed {
				case "copied":
					bel = copyDay(actual)
				case "falsified":
					bel = drawDay(h, r, p)
				}
				temp, co2 := make([]float64, aras.SlotsPerDay), make([]float64, aras.SlotsPerDay)
				for s := range temp {
					temp[s], co2[s] = r.Range(55, 105), r.Range(380, 460)
				}
				for s := 0; s < aras.SlotsPerDay; s++ {
					step.OutdoorTempF, step.OutdoorCO2PPM = temp[s], co2[s]
					for o := range h.Occupants {
						step.Believed[o] = hvac.OccupantObs{Zone: bel.Zone[o][s], Activity: bel.Act[o][s]}
						step.ActualOccupants[o] = hvac.OccupantObs{Zone: actual.Zone[o][s], Activity: actual.Act[o][s]}
					}
					for a := range h.Appliances {
						step.BelievedAppliance[a] = aras.Bit(bel.Appliance[a], s)
						step.ActualAppliance[a] = aras.Bit(actual.Appliance[a], s)
					}
					slotSim.Step(step)
				}
				if err := daySim.StepDay(&hvac.DayInput{
					OutdoorTempF: temp, OutdoorCO2PPM: co2,
					BelievedZone: bel.Zone, BelievedAct: bel.Act, BelievedAppliance: bel.Appliance,
					ActualZone: actual.Zone, ActualAct: actual.Act, ActualAppliance: actual.Appliance,
				}); err != nil {
					t.Fatal(err)
				}
				if !sameBits(slotSim.ZoneCO2(), daySim.ZoneCO2()) {
					t.Fatalf("%s day %d (%s): zone CO2 diverged\nslot: %v\nday:  %v",
						label, d, p.name, slotSim.ZoneCO2(), daySim.ZoneCO2())
				}
			}
			if want, got := slotSim.Result(), daySim.Result(); !slices.Equal(resultBits(want), resultBits(got)) {
				t.Fatalf("%s: StepDay result differs from Step\nslot: %+v\nday:  %+v", label, want, got)
			}
		}
	}
}
