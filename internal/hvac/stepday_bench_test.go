package hvac_test

import (
	"testing"
	"time"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/hvac"
	"github.com/acyd-lab/shatter/internal/scenario"
)

// BenchmarkStepDay times the SHATTER day stepper the way the stream drives
// it: every SynthFleet(24, 23) home steps 4 generated days on a fresh Sim,
// with the believed columns in their own slices (copies of the truth), so
// the kernel scans believed and actual columns separately. One op is the
// whole fleet; us/day is the cost of one home-day.
func BenchmarkStepDay(b *testing.B) {
	const homes, days = 24, 4
	params, pricing := hvac.DefaultParams(), hvac.DefaultPricing()
	type world struct {
		house *home.House
		in    []hvac.DayInput
	}
	worlds := make([]world, homes)
	for i, sp := range scenario.SynthFleet(homes, 23) {
		tr, err := sp.Generate(days, 23)
		if err != nil {
			b.Fatal(err)
		}
		w := world{house: tr.House}
		for d, day := range tr.Days {
			bel := aras.NewDay(len(tr.House.Occupants), len(tr.House.Appliances))
			for o := range day.Zone {
				copy(bel.Zone[o], day.Zone[o])
				copy(bel.Act[o], day.Act[o])
			}
			for a := range day.Appliance {
				copy(bel.Appliance[a], day.Appliance[a])
			}
			w.in = append(w.in, hvac.DayInput{
				OutdoorTempF:      tr.Weather[d].TempF,
				OutdoorCO2PPM:     tr.Weather[d].CO2PPM,
				BelievedZone:      bel.Zone,
				BelievedAct:       bel.Act,
				BelievedAppliance: bel.Appliance,
				ActualZone:        day.Zone,
				ActualAct:         day.Act,
				ActualAppliance:   day.Appliance,
			})
		}
		worlds[i] = w
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for n := 0; n < b.N; n++ {
		for _, w := range worlds {
			sim, err := hvac.NewSim(w.house, &hvac.SHATTERController{Params: params}, params, pricing)
			if err != nil {
				b.Fatal(err)
			}
			for d := range w.in {
				if err := sim.StepDay(&w.in[d]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportMetric(float64(time.Since(start).Microseconds())/float64(b.N*homes*days), "us/day")
}
