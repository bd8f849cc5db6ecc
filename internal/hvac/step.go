package hvac

import (
	"math"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/home"
)

// StepInput is one control slot's worth of boundary conditions and
// observations — everything the incremental simulator needs to advance a
// single minute. The Believed fields feed the controller (under attack they
// are falsified); the Actual fields drive the plant's CO2 mass balance and
// the electrical energy accounting. All slices are read synchronously during
// Step and may be reused by the caller afterwards.
type StepInput struct {
	// OutdoorTempF and OutdoorCO2PPM are the slot's weather (P^OT, P^OC).
	OutdoorTempF  float64
	OutdoorCO2PPM float64
	// Believed is the controller's per-occupant observation (falsified under
	// attack).
	Believed []OccupantObs
	// BelievedAppliance[a] is the believed status of appliance a (forged
	// δ^D statuses included under attack).
	BelievedAppliance []bool
	// ActualOccupants is the ground-truth occupancy/activity per occupant,
	// which generates the plant's real CO2.
	ActualOccupants []OccupantObs
	// ActualAppliance[a] is the true electrical state of appliance a
	// (trace status plus really-triggered appliances).
	ActualAppliance []bool
}

// SlotReport is Step's per-slot account — the "controller action" event the
// streaming layer publishes. Demands is the controller's airflow decision
// per zone and is valid until the next Step call.
type SlotReport struct {
	Day, Slot int
	Demands   []Demand
	KWh       float64
	CostUSD   float64
}

// Sim is the incremental plant/controller simulator: one Step call advances
// one minute slot and one StepDay call one whole day, carrying the zone CO2
// state, the daily peak-window battery accounting, and the cost/energy
// totals across calls. StepDay is bit-identical to aras.SlotsPerDay Step
// calls on the same inputs, and the batch Simulate is a loop over StepDay.
// A Sim is not safe for concurrent use.
type Sim struct {
	house   *home.House
	ctrl    Controller
	params  Params
	pricing Pricing

	res     Result
	zoneCO2 []float64
	gen     []float64
	day     int
	slot    int // slot-of-day, 0..SlotsPerDay-1
	peakKWh float64
	// scratch is StepDay's reusable working state.
	scratch dayScratch
}

// NewSim validates the parameters and returns a simulator positioned at
// slot 0 of day 0.
func NewSim(house *home.House, ctrl Controller, params Params, pricing Pricing) (*Sim, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Sim{
		house:   house,
		ctrl:    ctrl,
		params:  params,
		pricing: pricing,
		res: Result{
			Controller:  ctrl.Name(),
			ZoneCoilKWh: make([]float64, len(house.Zones)),
		},
		zoneCO2: make([]float64, len(house.Zones)),
		gen:     make([]float64, len(house.Zones)),
	}, nil
}

// Day returns the day index the next Step call advances.
func (s *Sim) Day() int { return s.day }

// SlotOfDay returns the minute-of-day the next Step call advances.
func (s *Sim) SlotOfDay() int { return s.slot }

// Step advances the plant and the accounting by one minute slot. Day
// boundaries are implicit: every aras.SlotsPerDay calls start a new day,
// resetting the battery's peak-window state and opening a fresh daily
// accumulator.
func (s *Sim) Step(in StepInput) SlotReport {
	if s.slot == 0 {
		// Day boundary: zones that have never been conditioned start at the
		// day's outdoor CO2 level; the battery recharges overnight.
		for zi := range s.zoneCO2 {
			if s.zoneCO2[zi] == 0 {
				s.zoneCO2[zi] = in.OutdoorCO2PPM
			}
		}
		s.peakKWh = 0
		s.res.DailyCostUSD = append(s.res.DailyCostUSD, 0)
		s.res.DailyKWh = append(s.res.DailyKWh, 0)
	}
	d, t := s.day, s.slot
	cond := ZoneConditions{
		OutdoorTempF:  in.OutdoorTempF,
		OutdoorCO2PPM: in.OutdoorCO2PPM,
		ZoneCO2PPM:    s.zoneCO2,
	}
	demands := s.ctrl.Plan(s.house, in.Believed, in.BelievedAppliance, cond)
	// Energy: coil on the fresh/return mix (Eq 3) plus fan power.
	var slotW float64
	for zi, dem := range demands {
		if dem.SupplyCFM <= 0 {
			continue
		}
		tMix := mixedAirTempF(dem, in.OutdoorTempF, s.params.ZoneSetpointF)
		coilW := dem.SupplyCFM * math.Max(0, tMix-s.params.SupplyAirTempF) * SensibleHeatFactor
		fanW := dem.SupplyCFM * s.params.FanWPerCFM
		slotW += coilW + fanW
		kwh := (coilW + fanW) * SlotMinutes / 60000
		s.res.CoilKWh += coilW * SlotMinutes / 60000
		s.res.FanKWh += fanW * SlotMinutes / 60000
		s.res.ZoneCoilKWh[zi] += kwh
	}
	// Appliance and base loads (actual draw).
	for ai, appl := range s.house.Appliances {
		if in.ActualAppliance[ai] {
			slotW += appl.PowerW
			s.res.ApplianceKWh += appl.PowerW * SlotMinutes / 60000
		}
	}
	slotW += s.params.BaseLoadW
	s.res.BaseKWh += s.params.BaseLoadW * SlotMinutes / 60000

	slotKWh := slotW * SlotMinutes / 60000
	rate := s.pricing.RateAt(t, s.peakKWh)
	if s.pricing.InPeak(t) {
		s.peakKWh += slotKWh
	}
	slotCost := slotKWh * rate
	s.res.DailyKWh[d] += slotKWh
	s.res.DailyCostUSD[d] += slotCost

	// Plant CO2 mass balance from ground-truth occupancy and the delivered
	// fresh air (Eq 1).
	s.stepCO2(in, demands)

	rep := SlotReport{Day: d, Slot: t, Demands: demands, KWh: slotKWh, CostUSD: slotCost}
	s.slot++
	if s.slot == aras.SlotsPerDay {
		s.res.TotalCostUSD += s.res.DailyCostUSD[d]
		s.res.TotalKWh += s.res.DailyKWh[d]
		s.slot = 0
		s.day++
	}
	return rep
}

// stepCO2 advances each conditioned zone's CO2 with the Eq 1 mass balance
// using ground-truth generation and delivered fresh airflow.
func (s *Sim) stepCO2(in StepInput, demands []Demand) {
	for i := range s.gen {
		s.gen[i] = 0
	}
	for o, ob := range in.ActualOccupants {
		if !ob.Zone.Conditioned() {
			continue
		}
		demo := s.house.Occupants[o].Demographics
		act := home.ActivityByID(ob.Activity)
		s.gen[ob.Zone] += act.CO2Ft3PerMin(demo)
	}
	for zi := range s.house.Zones {
		z := s.house.Zones[zi]
		if !z.ID.Conditioned() || z.VolumeFt3 <= 0 {
			continue
		}
		r := 0.0
		if zi < len(demands) {
			r = demands[zi].FreshCFM * SlotMinutes / z.VolumeFt3
		}
		r = math.Min(r, 1)
		genPPM := s.gen[zi] * SlotMinutes / z.VolumeFt3 * 1e6
		s.zoneCO2[zi] = (1-r)*s.zoneCO2[zi] + r*in.OutdoorCO2PPM + genPPM
	}
}

// ZoneCO2 exposes the plant's current per-zone CO2 state (indexed by
// ZoneID) — the measurement series a streaming deployment would publish
// from its IAQ sensors. The returned slice is the simulator's live state;
// callers must not modify it.
func (s *Sim) ZoneCO2() []float64 { return s.zoneCO2 }

// Result returns the accounting so far as an independent snapshot: the
// per-day and per-zone series are cloned, so a mid-stream sample stays
// consistent while stepping continues. A partial in-flight day (streams
// that stop between day boundaries) is folded into the totals without
// disturbing the simulator's state, so the result of a whole-day stream is
// bit-identical to batch Simulate.
func (s *Sim) Result() Result {
	res := s.res
	res.DailyCostUSD = append([]float64(nil), res.DailyCostUSD...)
	res.DailyKWh = append([]float64(nil), res.DailyKWh...)
	res.ZoneCoilKWh = append([]float64(nil), res.ZoneCoilKWh...)
	if s.slot != 0 {
		res.TotalCostUSD += res.DailyCostUSD[s.day]
		res.TotalKWh += res.DailyKWh[s.day]
	}
	return res
}
