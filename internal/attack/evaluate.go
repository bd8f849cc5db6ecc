package attack

import (
	"fmt"

	"github.com/acyd-lab/shatter/internal/adm"
	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/hvac"
)

// EvalOptions configures impact evaluation.
type EvalOptions struct {
	// AbortDetectedDays models the defender acting on alarms: any day on
	// which the defender's ADM flags an injected episode reverts to its
	// benign cost (the attack vector was not stealthy, so its impact does
	// not materialise). Table V's SHATTER/Greedy rows under partial
	// attacker knowledge shrink through exactly this mechanism.
	AbortDetectedDays bool
	// Benign, when non-nil, supplies a precomputed no-attack simulation of
	// the same (trace, controller, params, pricing) and skips re-simulating
	// it — the benign leg is identical across every evaluation of a house,
	// so suite-level callers memoize it.
	Benign *hvac.Result
}

// Impact is the outcome of an attack campaign.
type Impact struct {
	Strategy string
	// Benign and Attacked are the full simulation results.
	Benign   hvac.Result
	Attacked hvac.Result
	// ExtraCostUSD = Attacked − Benign total cost.
	ExtraCostUSD float64
	// DetectionRate is the fraction of injected reported episodes the
	// defender's ADM flags as anomalous.
	DetectionRate float64
	// DetectedDays counts days with at least one flagged injected episode.
	DetectedDays int
	// InfeasibleWindows is carried from the plan.
	InfeasibleWindows int
}

// EvaluateImpact simulates the benign and attacked systems and scores
// stealthiness against the defender's ADM (which may differ from the
// attacker's estimate under partial knowledge). Trace days at or past the
// plan's horizon are truth-telling: nothing is injected or scored there.
func EvaluateImpact(trace *aras.Trace, plan *Plan, defender *adm.Model, ctrl hvac.Controller, params hvac.Params, pricing hvac.Pricing, opts EvalOptions) (Impact, error) {
	var benign hvac.Result
	if opts.Benign != nil {
		benign = *opts.Benign
	} else {
		var err error
		benign, err = hvac.Simulate(trace, ctrl, params, pricing)
		if err != nil {
			return Impact{}, fmt.Errorf("attack: benign simulation: %w", err)
		}
	}

	injected, flagged := 0, 0
	detectedDay := make([]bool, trace.NumDays())
	if defender != nil {
		for d := 0; d < trace.NumDays() && d < len(plan.RepZone); d++ {
			for o := range trace.House.Occupants {
				for _, e := range plan.DayReportedEpisodes(trace, d, o) {
					if !e.Injected {
						continue
					}
					injected++
					if defender.EpisodeAnomalous(e.Episode) {
						flagged++
						detectedDay[d] = true
					}
				}
			}
		}
	}

	var reverted []bool
	if opts.AbortDetectedDays {
		reverted = detectedDay
	}
	attacked, err := simulateAttacked(trace, plan, reverted, ctrl, params, pricing)
	if err != nil {
		return Impact{}, fmt.Errorf("attack: attacked simulation: %w", err)
	}

	imp := Impact{
		Strategy:          plan.Strategy,
		Benign:            benign,
		Attacked:          attacked,
		ExtraCostUSD:      attacked.TotalCostUSD - benign.TotalCostUSD,
		InfeasibleWindows: plan.InfeasibleWindows,
	}
	if injected > 0 {
		imp.DetectionRate = float64(flagged) / float64(injected)
	}
	for _, det := range detectedDay {
		if det {
			imp.DetectedDays++
		}
	}
	return imp, nil
}

// simulateAttacked steps the plant over the falsified stream one day at a
// time: each day's columns start as a copy of the truth in per-call scratch
// (the trace and the plan are never written) and FalsifyDay rewrites them,
// except on days marked in reverted, which stay truth-telling (no
// injections, no triggers).
func simulateAttacked(trace *aras.Trace, plan *Plan, reverted []bool, ctrl hvac.Controller, params hvac.Params, pricing hvac.Pricing) (hvac.Result, error) {
	if trace.NumDays() == 0 {
		return hvac.Result{}, hvac.ErrEmptyTrace
	}
	house := trace.House
	sim, err := hvac.NewSim(house, ctrl, params, pricing)
	if err != nil {
		return hvac.Result{}, err
	}
	believed := aras.NewDay(len(house.Occupants), len(house.Appliances))
	actualAppl := aras.NewDay(0, len(house.Appliances)).Appliance
	for d, day := range trace.Days {
		for o := range believed.Zone {
			copy(believed.Zone[o], day.Zone[o])
			copy(believed.Act[o], day.Act[o])
		}
		for a := range believed.Appliance {
			copy(believed.Appliance[a], day.Appliance[a])
			copy(actualAppl[a], day.Appliance[a])
		}
		in := hvac.DayInput{
			OutdoorTempF:      trace.Weather[d].TempF,
			OutdoorCO2PPM:     trace.Weather[d].CO2PPM,
			BelievedZone:      believed.Zone,
			BelievedAct:       believed.Act,
			BelievedAppliance: believed.Appliance,
			ActualZone:        day.Zone,
			ActualAct:         day.Act,
			ActualAppliance:   actualAppl,
		}
		if reverted == nil || !reverted[d] {
			plan.FalsifyDay(house, d, &in)
		}
		if err := sim.StepDay(&in); err != nil {
			return hvac.Result{}, err
		}
	}
	return sim.Result(), nil
}
