package testbed

import (
	"errors"

	"github.com/acyd-lab/shatter/internal/home"
)

// MinuteLoad is one minute of testbed ground truth: the LED wattage lit in
// each conditioned zone (occupant emulation plus appliance emulation).
type MinuteLoad struct {
	// OccupantW[i] is the occupant-emulation LED load per zone.
	OccupantW []float64
	// ApplianceW[i] is the appliance-emulation LED load per zone.
	ApplianceW []float64
}

// newMinuteLoad allocates a zeroed load frame for n zones.
func newMinuteLoad(n int) MinuteLoad {
	return MinuteLoad{OccupantW: make([]float64, n), ApplianceW: make([]float64, n)}
}

// Scenario is a minutes-long testbed run: the actual loads and, under
// attack, the loads the controller is told about plus the appliance LEDs
// the attacker really triggers.
type Scenario struct {
	// Actual is the ground-truth load per minute.
	Actual []MinuteLoad
	// Reported, when non-nil, is what the MITM attacker makes the
	// controller believe (same length as Actual).
	Reported []MinuteLoad
	// TriggeredW, when non-nil, adds really-on attacker-triggered appliance
	// LEDs per minute per zone (they draw power and heat the zone).
	TriggeredW [][]float64
}

// DemoScenario builds the paper's demonstration hour for any scenario
// house, placed by zone kind: the first occupant showers in their
// bathroom-kind zone then relaxes in their living-kind zone with the TV
// bulb on, while every other occupant naps in their bedroom-kind zone.
// Under attack, the controller is told every occupant is cooking in their
// kitchen-kind zone and those kitchens' appliance bulbs are really
// triggered. For house A this reproduces Fig 8's hour exactly.
func DemoScenario(cfg Config, house *home.House, attacked bool) Scenario {
	const minutes = 60
	n := len(house.Zones) - 1
	led := cfg.LEDPowerW
	zi := func(z home.ZoneID) int { return int(z) - 1 }
	sc := Scenario{Actual: make([]MinuteLoad, minutes)}
	for t := 0; t < minutes; t++ {
		m := newMinuteLoad(n)
		for o := range house.Occupants {
			switch {
			case o == 0 && t < 25:
				// The first occupant showers (bathroom bulb + small appliance
				// bulb for the bathtub heater).
				bath := zi(house.ZoneForActivity(o, home.HavingShower))
				m.OccupantW[bath] += led
				m.ApplianceW[bath] += led * 0.5
			case o == 0:
				// ... then moves to the living room with the TV bulb on.
				living := zi(house.ZoneForActivity(o, home.WatchingTV))
				m.OccupantW[living] += led
				m.ApplianceW[living] += led * 0.4
			default:
				// Everyone else naps in their bedroom all hour (1 bulb each).
				m.OccupantW[zi(house.ZoneForActivity(o, home.Napping))] += led
			}
		}
		sc.Actual[t] = m
	}
	if !attacked {
		return sc
	}
	sc.Reported = make([]MinuteLoad, minutes)
	sc.TriggeredW = make([][]float64, minutes)
	for t := 0; t < minutes; t++ {
		rep := newMinuteLoad(n)
		trig := make([]float64, n)
		for o := range house.Occupants {
			// The forged story: every occupant cooking in their kitchen with
			// the oven, microwave, and kettle bulbs on; those bulbs are
			// REALLY triggered (inaudible voice commands), so they draw
			// power and heat the kitchen.
			kitchen := zi(house.ZoneForActivity(o, home.PreparingDinner))
			rep.OccupantW[kitchen] += led
			if rep.ApplianceW[kitchen] == 0 {
				rep.ApplianceW[kitchen] = 3 * led
				trig[kitchen] = 3 * led
			}
		}
		sc.Reported[t] = rep
		sc.TriggeredW[t] = trig
	}
	return sc
}

// RunResult summarises a testbed run.
type RunResult struct {
	// EnergyWh is the total electrical energy over the run.
	EnergyWh float64
	// MaxRiseF is the worst occupied-zone excursion above the setpoint —
	// the comfort violation the attack induces (Fig 8's overheated
	// occupied zones).
	MaxRiseF float64
	// Minutes is the run length.
	Minutes int
}

// ErrBadScenario rejects inconsistent scenarios.
var ErrBadScenario = errors.New("testbed: scenario length mismatch")

// Run executes the scenario: each minute the controller reads believed
// loads (actual, or forged under attack), sets fan duties from the
// identified dynamics model, and the plant steps with the real loads.
func Run(sim *Simulator, model *DynamicsModel, sc Scenario) (RunResult, error) {
	if sc.Reported != nil && len(sc.Reported) != len(sc.Actual) {
		return RunResult{}, ErrBadScenario
	}
	if sc.TriggeredW != nil && len(sc.TriggeredW) != len(sc.Actual) {
		return RunResult{}, ErrBadScenario
	}
	sim.Reset()
	res := RunResult{Minutes: len(sc.Actual)}
	in := sim.NewInputs()
	for t := range sc.Actual {
		believed := sc.Actual[t]
		if sc.Reported != nil {
			believed = sc.Reported[t]
		}
		for i := range in.LEDWatts {
			in.LEDWatts[i] = at(sc.Actual[t].OccupantW, i) + at(sc.Actual[t].ApplianceW, i)
			if sc.TriggeredW != nil {
				in.LEDWatts[i] += at(sc.TriggeredW[t], i)
			}
		}
		for i := range in.FanDuty {
			// Triggered appliances report "on", so the controller also sees
			// their load.
			belW := at(believed.OccupantW, i) + at(believed.ApplianceW, i)
			if sc.TriggeredW != nil {
				belW += at(sc.TriggeredW[t], i)
			}
			if belW <= 0 {
				in.FanDuty[i] = 0 // demand control: no believed load, no air
				continue
			}
			in.FanDuty[i] = clamp01(model.DutyForLoad[i].Eval(belW * 0.85))
		}
		res.EnergyWh += sim.Step(in)
		// Comfort tracking: occupied zones only.
		for i := range in.LEDWatts {
			if at(sc.Actual[t].OccupantW, i) > 0 {
				if rise := sim.TempF[i] - sim.cfg.SetpointF; rise > res.MaxRiseF {
					res.MaxRiseF = rise
				}
			}
		}
	}
	return res, nil
}

// ValidationResult is the Section VI headline: benign vs attacked energy.
type ValidationResult struct {
	Benign   RunResult
	Attacked RunResult
	// IncreasePct is the attacked-over-benign energy increase in percent
	// (the paper reports 78%).
	IncreasePct float64
	// FitErrorPct is the dynamics identification error (paper: <2%).
	FitErrorPct float64
}

// Validate runs the full Section VI experiment on the canonical house:
// identify the dynamics, run the demonstration hour benign and attacked,
// and report the energy increase.
func Validate(cfg Config) (ValidationResult, error) {
	return ValidateHouse(cfg, home.MustHouse("A"))
}

// ValidateHouse runs the Section VI experiment against any scenario
// house's scaled-down rig — the registry-driven form of Validate.
func ValidateHouse(cfg Config, house *home.House) (ValidationResult, error) {
	sim, err := NewForHouse(cfg, house)
	if err != nil {
		return ValidationResult{}, err
	}
	model, err := Identify(sim)
	if err != nil {
		return ValidationResult{}, err
	}
	benign, err := Run(sim, model, DemoScenario(cfg, house, false))
	if err != nil {
		return ValidationResult{}, err
	}
	attacked, err := Run(sim, model, DemoScenario(cfg, house, true))
	if err != nil {
		return ValidationResult{}, err
	}
	res := ValidationResult{
		Benign:      benign,
		Attacked:    attacked,
		FitErrorPct: model.FitErrorPct,
	}
	if benign.EnergyWh > 0 {
		res.IncreasePct = (attacked.EnergyWh/benign.EnergyWh - 1) * 100
	}
	return res, nil
}
