package hvac

import (
	"errors"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/home"
)

// Result aggregates a simulation.
type Result struct {
	Controller string
	// DailyCostUSD and DailyKWh are per-day totals.
	DailyCostUSD []float64
	DailyKWh     []float64
	// Energy decomposition over the whole run.
	CoilKWh      float64
	FanKWh       float64
	ApplianceKWh float64
	BaseKWh      float64
	// ZoneCoilKWh attributes coil+fan energy to zones.
	ZoneCoilKWh []float64
	// TotalCostUSD and TotalKWh are run totals.
	TotalCostUSD float64
	TotalKWh     float64
}

// ErrEmptyTrace is returned when the trace has no days.
var ErrEmptyTrace = errors.New("hvac: empty trace")

// Simulate runs the controller over the full trace with benign beliefs and
// returns cost/energy accounting per Eqs 3-4: one StepDay per trace day,
// with the controller's believed columns and the plant's actual columns
// both reading the trace, so batch and streaming execution are equivalent
// by construction.
func Simulate(trace *aras.Trace, ctrl Controller, params Params, pricing Pricing) (Result, error) {
	if trace.NumDays() == 0 {
		return Result{}, ErrEmptyTrace
	}
	sim, err := NewSim(trace.House, ctrl, params, pricing)
	if err != nil {
		return Result{}, err
	}
	for d, day := range trace.Days {
		in := DayInput{
			OutdoorTempF:      trace.Weather[d].TempF,
			OutdoorCO2PPM:     trace.Weather[d].CO2PPM,
			BelievedZone:      day.Zone,
			BelievedAct:       day.Act,
			BelievedAppliance: day.Appliance,
			ActualZone:        day.Zone,
			ActualAct:         day.Act,
			ActualAppliance:   day.Appliance,
		}
		if err := sim.StepDay(&in); err != nil {
			return Result{}, err
		}
	}
	return sim.Result(), nil
}

// mixedAirTempF returns the AHU mixing-chamber temperature for a demand:
// the fresh fraction at outdoor temperature, the rest at return (zone
// setpoint) temperature.
func mixedAirTempF(dem Demand, outdoorF, returnF float64) float64 {
	if dem.SupplyCFM <= 0 {
		return returnF
	}
	frac := dem.FreshCFM / dem.SupplyCFM
	frac = max(0, min(1, frac))
	return frac*outdoorF + (1-frac)*returnF
}

// coilW is Eq 3's sensible coil load in watts: supplyCFM of air cooled
// from the mixed-air temperature down to the supply temperature.
func coilW(supplyCFM, mixedF, supplyF float64) float64 {
	return supplyCFM * max(0, mixedF-supplyF) * SensibleHeatFactor
}

// CostModel precomputes per-slot marginal costs the attack optimiser uses
// as its additive surrogate objective: the $ cost of one believed occupant
// conducting an activity in a zone for one minute, and of one triggered
// appliance running for one minute. Exact attack costs are re-evaluated
// with Simulate after scheduling (Section V's case-study accounting).
type CostModel struct {
	house   *home.House
	params  Params
	pricing Pricing
	// applianceW[z·NumActivities+a] lists, in link order, the heat (W) of
	// activity a's habitual appliances installed in zone z.
	applianceW [][]float64
}

// NewCostModel builds a CostModel.
func NewCostModel(house *home.House, params Params, pricing Pricing) *CostModel {
	m := &CostModel{
		house:      house,
		params:     params,
		pricing:    pricing,
		applianceW: make([][]float64, len(house.Zones)*home.NumActivities),
	}
	for act := home.ActivityID(0); act < home.NumActivities; act++ {
		for _, ai := range house.AppliancesForActivity(act) {
			appl := house.Appliances[ai]
			i := int(appl.Zone)*home.NumActivities + int(act)
			m.applianceW[i] = append(m.applianceW[i], appl.HeatW())
		}
	}
	return m
}

// OccupantLoad is the slot-independent part of OccupantSlotCost for one
// (occupant, zone, activity): everything except the outdoor temperature
// and the tariff. The attack planner hoists one per activity out of each
// occupant-day's 1,440-slot zone row.
type OccupantLoad struct {
	conditioned bool
	// activityW is the activity's sensible heat for the occupant.
	activityW float64
	// envelopeWPerF is the zone's envelope conductance UA·area.
	envelopeWPerF float64
	// applianceW is the heat of the activity's appliances in the zone, in
	// the order OccupantSlotCost adds it.
	applianceW []float64
	// freshCFM is the steady-state fresh air holding the CO2 setpoint
	// against the occupant's generation.
	freshCFM float64
}

// OccupantLoad hoists the slot-independent terms of OccupantSlotCost.
func (m *CostModel) OccupantLoad(occupant int, z home.ZoneID, act home.ActivityID) OccupantLoad {
	if !z.Conditioned() {
		return OccupantLoad{}
	}
	p := m.params
	zone := m.house.Zone(z)
	demo := m.house.Occupants[occupant].Demographics
	a := home.ActivityByID(act)
	l := OccupantLoad{
		conditioned:   true,
		activityW:     a.HeatW(demo),
		envelopeWPerF: p.EnvelopeUAWPerF2 * zone.AreaFt2,
	}
	// The activity-appliance relationship: a reported activity carries its
	// habitual appliances' status (δ^D in the attack vector), so their heat
	// becomes believed cooling load.
	if act >= 0 && act < home.NumActivities {
		l.applianceW = m.applianceW[int(z)*home.NumActivities+int(act)]
	}
	// Steady-state fresh air to hold the setpoint against this occupant's
	// generation: r·(set − out) = genPPM.
	genPPM := genPPMPerSlot(a.CO2Ft3PerMin(demo), zone.VolumeFt3)
	if den := p.CO2SetpointPPM - 420; den > 0 {
		l.freshCFM = genPPM / den * zone.VolumeFt3 / SlotMinutes
	}
	return l
}

// SlotCost evaluates a hoisted load at a slot (minute-of-day) and outdoor
// temperature: the marginal per-minute USD cost OccupantSlotCost returns.
func (m *CostModel) SlotCost(l *OccupantLoad, slot int, outdoorF float64) float64 {
	if !l.conditioned {
		return 0
	}
	p := &m.params
	heat := l.activityW + l.envelopeWPerF*max(0, outdoorF-p.ZoneSetpointF)
	for _, w := range l.applianceW {
		heat += w
	}
	qs := supplyAirForHeat(heat, p.ZoneSetpointF, p.SupplyAirTempF)
	q := min(max(qs, l.freshCFM), p.MaxZoneCFM)
	fresh := min(l.freshCFM, q)
	tMix := mixedAirTempF(Demand{SupplyCFM: q, FreshCFM: fresh}, outdoorF, p.ZoneSetpointF)
	watts := coilW(q, tMix, p.SupplyAirTempF) + q*p.FanWPerCFM
	kwh := watts * SlotMinutes / 60000
	return kwh * m.rateApprox(slot)
}

// OccupantSlotCost returns the marginal per-minute USD cost of a believed
// occupant in zone z performing activity act at slot (minute-of-day),
// assuming the zone is otherwise unconditioned (so the envelope load
// activates with the occupant).
func (m *CostModel) OccupantSlotCost(occupant int, z home.ZoneID, act home.ActivityID, slot int, outdoorF float64) float64 {
	l := m.OccupantLoad(occupant, z, act)
	return m.SlotCost(&l, slot, outdoorF)
}

// ApplianceSlotCost returns the marginal per-minute USD cost of appliance
// ai running at slot: its electrical draw plus the induced coil load in its
// (conditioned) zone.
func (m *CostModel) ApplianceSlotCost(ai, slot int, outdoorF float64) float64 {
	p := m.params
	appl := m.house.Appliances[ai]
	watts := appl.PowerW
	if appl.Zone.Conditioned() {
		qs := supplyAirForHeat(appl.HeatW(), p.ZoneSetpointF, p.SupplyAirTempF)
		qs = min(qs, p.MaxZoneCFM)
		tMix := mixedAirTempF(Demand{SupplyCFM: qs}, outdoorF, p.ZoneSetpointF)
		watts += coilW(qs, tMix, p.SupplyAirTempF) + qs*p.FanWPerCFM
	}
	kwh := watts * SlotMinutes / 60000
	return kwh * m.rateApprox(slot)
}

// rateApprox prices a slot ignoring battery state (the surrogate does not
// track cumulative peak energy; Simulate re-applies Eq 4 exactly).
func (m *CostModel) rateApprox(slot int) float64 {
	if m.pricing.InPeak(slot) {
		return m.pricing.PeakUSDPerKWh
	}
	return m.pricing.OffPeakUSDPerKWh
}
