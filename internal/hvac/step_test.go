package hvac

import (
	"reflect"
	"testing"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/home"
)

// newStepInput allocates a reusable per-slot StepInput sized for the house.
func newStepInput(h *home.House) StepInput {
	return StepInput{
		Believed:          make([]OccupantObs, len(h.Occupants)),
		BelievedAppliance: make([]bool, len(h.Appliances)),
		ActualOccupants:   make([]OccupantObs, len(h.Occupants)),
		ActualAppliance:   make([]bool, len(h.Appliances)),
	}
}

// fillTruth loads slot s of trace day d into in, with the believed fields
// reading the same ground-truth columns as the actual ones (the benign case).
func fillTruth(in *StepInput, tr *aras.Trace, d, s int) {
	day := tr.Days[d]
	in.OutdoorTempF = tr.Weather[d].TempF[s]
	in.OutdoorCO2PPM = tr.Weather[d].CO2PPM[s]
	for o := range in.Believed {
		obs := OccupantObs{Zone: day.Zone[o][s], Activity: day.Act[o][s]}
		in.Believed[o] = obs
		in.ActualOccupants[o] = obs
	}
	for a := range in.BelievedAppliance {
		in.BelievedAppliance[a] = aras.Bit(day.Appliance[a], s)
		in.ActualAppliance[a] = aras.Bit(day.Appliance[a], s)
	}
}

// driveSteps replays a trace through the incremental Sim exactly the way a
// streaming consumer would — one StepInput per slot — and returns the
// result, plus the totals reported after the final step.
func driveSteps(t *testing.T, tr *aras.Trace, ctrl Controller, params Params, pricing Pricing) Result {
	t.Helper()
	sim, err := NewSim(tr.House, ctrl, params, pricing)
	if err != nil {
		t.Fatal(err)
	}
	in := newStepInput(tr.House)
	for d := 0; d < tr.NumDays(); d++ {
		for s := 0; s < aras.SlotsPerDay; s++ {
			if sim.Day() != d || sim.SlotOfDay() != s {
				t.Fatalf("stepper at (%d,%d), want (%d,%d)", sim.Day(), sim.SlotOfDay(), d, s)
			}
			fillTruth(&in, tr, d, s)
			rep := sim.Step(in)
			if rep.Day != d || rep.Slot != s {
				t.Fatalf("report at (%d,%d), want (%d,%d)", rep.Day, rep.Slot, d, s)
			}
		}
	}
	return sim.Result()
}

// TestStepMatchesSimulate pins the per-slot Step path to the day-loop batch
// Simulate bit-for-bit on both paper houses and both controllers (the
// SHATTER controller's segment-amortized StepDay and the ASHRAE fallback).
func TestStepMatchesSimulate(t *testing.T) {
	params := DefaultParams()
	pricing := DefaultPricing()
	for _, name := range []string{"A", "B"} {
		tr := testTrace(t, name, 4)
		for _, mk := range []func() Controller{
			func() Controller { return &SHATTERController{Params: params} },
			func() Controller { return NewASHRAEController(params, tr.House) },
		} {
			batch, err := Simulate(tr, mk(), params, pricing)
			if err != nil {
				t.Fatalf("Simulate(%s): %v", name, err)
			}
			streamed := driveSteps(t, tr, mk(), params, pricing)
			if !reflect.DeepEqual(batch, streamed) {
				t.Errorf("house %s %s: streamed result differs from batch\nbatch:    %+v\nstreamed: %+v",
					name, batch.Controller, batch, streamed)
			}
		}
	}
}

// TestStepPartialDayTotals checks the Result of a stream stopped mid-day
// includes the partial day without perturbing the stepper.
func TestStepPartialDayTotals(t *testing.T) {
	tr := testTrace(t, "A", 1)
	params := DefaultParams()
	sim, err := NewSim(tr.House, &SHATTERController{Params: params}, params, DefaultPricing())
	if err != nil {
		t.Fatal(err)
	}
	in := newStepInput(tr.House)
	for s := 0; s < 100; s++ {
		fillTruth(&in, tr, 0, s)
		sim.Step(in)
	}
	res := sim.Result()
	if res.TotalKWh <= 0 || res.TotalCostUSD <= 0 {
		t.Fatalf("partial-day totals not folded in: %+v", res)
	}
	if res.TotalKWh != res.DailyKWh[0] || res.TotalCostUSD != res.DailyCostUSD[0] {
		t.Fatalf("partial-day totals mismatch daily accumulators: %+v", res)
	}
	if sim.SlotOfDay() != 100 {
		t.Fatalf("Result() disturbed the stepper: slot %d", sim.SlotOfDay())
	}
}

func TestNewSimRejectsBadParams(t *testing.T) {
	h := home.MustHouse("A")
	bad := DefaultParams()
	bad.SupplyAirTempF = bad.ZoneSetpointF + 1
	if _, err := NewSim(h, &SHATTERController{Params: bad}, bad, DefaultPricing()); err == nil {
		t.Error("invalid params accepted")
	}
}
