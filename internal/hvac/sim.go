package hvac

import (
	"errors"
	"math"

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
	frac = math.Max(0, math.Min(1, frac))
	return frac*outdoorF + (1-frac)*returnF
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
}

// NewCostModel builds a CostModel.
func NewCostModel(house *home.House, params Params, pricing Pricing) *CostModel {
	return &CostModel{house: house, params: params, pricing: pricing}
}

// OccupantSlotCost returns the marginal per-minute USD cost of a believed
// occupant in zone z performing activity act at slot (minute-of-day),
// assuming the zone is otherwise unconditioned (so the envelope load
// activates with the occupant). Outdoor temperature defaults to the design
// summer mean when weather is nil.
func (m *CostModel) OccupantSlotCost(occupant int, z home.ZoneID, act home.ActivityID, slot int, outdoorF float64) float64 {
	if !z.Conditioned() {
		return 0
	}
	p := m.params
	zone := m.house.Zone(z)
	demo := m.house.Occupants[occupant].Demographics
	a := home.ActivityByID(act)
	heat := a.HeatW(demo) + p.EnvelopeUAWPerF2*zone.AreaFt2*math.Max(0, outdoorF-p.ZoneSetpointF)
	// The activity-appliance relationship: a reported activity carries its
	// habitual appliances' status (δ^D in the attack vector), so their heat
	// becomes believed cooling load.
	for _, ai := range m.house.AppliancesForActivity(act) {
		if m.house.Appliances[ai].Zone == z {
			heat += m.house.Appliances[ai].HeatW()
		}
	}
	qs := supplyAirForHeat(heat, p.ZoneSetpointF, p.SupplyAirTempF)
	// Steady-state fresh air to hold the setpoint against this occupant's
	// generation: r·(set − out) = genPPM.
	genPPM := a.CO2Ft3PerMin(demo) * SlotMinutes / zone.VolumeFt3 * 1e6
	qf := 0.0
	if den := p.CO2SetpointPPM - 420; den > 0 {
		qf = genPPM / den * zone.VolumeFt3 / SlotMinutes
	}
	q := math.Min(math.Max(qs, qf), p.MaxZoneCFM)
	fresh := math.Min(qf, q)
	tMix := mixedAirTempF(Demand{SupplyCFM: q, FreshCFM: fresh}, outdoorF, p.ZoneSetpointF)
	watts := q*math.Max(0, tMix-p.SupplyAirTempF)*SensibleHeatFactor + q*p.FanWPerCFM
	kwh := watts * SlotMinutes / 60000
	return kwh * m.rateApprox(slot)
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
		qs = math.Min(qs, p.MaxZoneCFM)
		tMix := mixedAirTempF(Demand{SupplyCFM: qs}, outdoorF, p.ZoneSetpointF)
		watts += qs*math.Max(0, tMix-p.SupplyAirTempF)*SensibleHeatFactor + qs*p.FanWPerCFM
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
