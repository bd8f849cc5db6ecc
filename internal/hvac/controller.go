package hvac

import "github.com/acyd-lab/shatter/internal/home"

// OccupantObs is what the control system believes about one occupant at a
// slot: where they are and what they are doing. Under attack these beliefs
// come from falsified sensor measurements rather than ground truth.
type OccupantObs struct {
	Zone     home.ZoneID
	Activity home.ActivityID
}

// ZoneConditions carries the per-slot boundary conditions a controller
// plans against.
type ZoneConditions struct {
	OutdoorTempF  float64
	OutdoorCO2PPM float64
	// ZoneCO2PPM is the current measured CO2 per zone.
	ZoneCO2PPM []float64
}

// Demand is a controller's airflow decision for one zone at one slot.
type Demand struct {
	// SupplyCFM is the total supply airflow Q (Eq 2).
	SupplyCFM float64
	// FreshCFM is the fresh (outdoor) portion of the supply (Eq 1);
	// the remainder recirculates return air.
	FreshCFM float64
}

// Controller plans per-zone airflow from believed occupancy/activity and
// appliance state.
type Controller interface {
	// Name identifies the controller in experiment output.
	Name() string
	// Plan returns one Demand per zone (indexed by ZoneID; Outside's entry
	// is zero) for one slot. believed[o] is the believed observation of
	// occupant o and believedAppliance[a] the believed status of appliance
	// a; under attack both are falsified. Plan must not retain either slice.
	Plan(house *home.House, believed []OccupantObs, believedAppliance []bool, cond ZoneConditions) []Demand
}

// genPPMPerSlot converts a zone's CO2 generation in ft³/min to the ppm it
// adds in one slot: the gen·Δt/V term of Eq 1.
func genPPMPerSlot(genFt3PerMin, volumeFt3 float64) float64 {
	return genFt3PerMin * SlotMinutes / volumeFt3 * 1e6
}

// freshAirForCO2 solves the Eq 1 mass balance for the minimum fresh airflow
// holding next-slot CO2 at or below the setpoint:
//
//	C_next = (1−r)·C + r·C_out + genPPM,  r = Qf·Δt/V
//
// genPPM is the slot's generation from genPPMPerSlot; concentrations in ppm
// (ft³ CO2 per 10⁶ ft³ air).
func freshAirForCO2(genPPM, volumeFt3, zoneCO2, outCO2, setpoint float64) float64 {
	if volumeFt3 <= 0 {
		return 0
	}
	// Without ventilation the zone would reach:
	unforced := zoneCO2 + genPPM
	if unforced <= setpoint {
		return 0
	}
	// Need r such that (1−r)·C + r·out + genPPM = setpoint.
	den := zoneCO2 - outCO2
	if den <= 0 {
		// Outdoor air cannot dilute below outdoor levels; flush at a nominal
		// one air change per hour equivalent.
		return volumeFt3 / 60
	}
	r := min((unforced-setpoint)/den, 1)
	return r * volumeFt3 / SlotMinutes
}

// nextZoneCO2 is the plant side of Eq 1: a zone's CO2 after one slot of
// dilution by freshCFM of outdoor air plus the slot's generation genPPM.
func nextZoneCO2(zoneCO2, freshCFM, volumeFt3, outCO2, genPPM float64) float64 {
	r := min(freshCFM*SlotMinutes/volumeFt3, 1)
	return (1-r)*zoneCO2 + r*outCO2 + genPPM
}

// supplyAirForHeat solves Eq 2 for the supply airflow that removes the
// sensible heat gain at the design temperature difference.
func supplyAirForHeat(heatW, zoneSetF, supplyF float64) float64 {
	dt := zoneSetF - supplyF
	if dt <= 0 || heatW <= 0 {
		return 0
	}
	return heatW / (SensibleHeatFactor * dt)
}

// SHATTERController is the paper's proposed activity-aware DCHVAC
// controller (Section II): per-activity metabolic rates, live
// appliance-status load, and per-occupant tracking. It conditions a zone
// only while the believed occupancy is non-zero.
//
// The controller reuses internal per-zone scratch buffers across Plan calls
// (a simulation issues one call per minute-slot), so a single instance must
// not be shared between concurrently running simulations.
type SHATTERController struct {
	Params Params

	// Per-zone scratch reused across Plan calls.
	demands  []Demand
	heat     []float64
	gen      []float64
	occupied []bool
}

var _ Controller = (*SHATTERController)(nil)

// Name implements Controller.
func (c *SHATTERController) Name() string { return "SHATTER" }

// Plan implements Controller. The returned demand slice is valid until the
// next Plan call.
func (c *SHATTERController) Plan(house *home.House, believed []OccupantObs, believedAppliance []bool, cond ZoneConditions) []Demand {
	p := c.Params
	nz := len(house.Zones)
	if cap(c.demands) < nz {
		c.demands = make([]Demand, nz)
		c.heat = make([]float64, nz)
		c.gen = make([]float64, nz)
		c.occupied = make([]bool, nz)
	}
	demands, heat, gen, occupied := c.demands[:nz], c.heat[:nz], c.gen[:nz], c.occupied[:nz]
	for zi := 0; zi < nz; zi++ {
		demands[zi] = Demand{}
		heat[zi], gen[zi], occupied[zi] = 0, 0, false
	}
	// Per-zone occupant heat and CO2 generation from activity profiles.
	for o, ob := range believed {
		if !ob.Zone.Conditioned() {
			continue
		}
		demo := house.Occupants[o].Demographics
		act := home.ActivityByID(ob.Activity)
		heat[ob.Zone] += act.HeatW(demo)
		gen[ob.Zone] += act.CO2Ft3PerMin(demo)
		occupied[ob.Zone] = true
	}
	// Appliance heat by installed zone, from believed status.
	for ai, appl := range house.Appliances {
		if believedAppliance[ai] {
			heat[appl.Zone] += appl.HeatW()
		}
	}
	for zi := range house.Zones {
		z := house.Zones[zi]
		if !z.ID.Conditioned() || !occupied[zi] {
			continue // demand-controlled setback: no occupants, no supply
		}
		// Envelope gain while conditioning the zone.
		heat[zi] += p.EnvelopeUAWPerF2 * z.AreaFt2 * max(0, cond.OutdoorTempF-p.ZoneSetpointF)
		qs := supplyAirForHeat(heat[zi], p.ZoneSetpointF, p.SupplyAirTempF)
		qf := freshAirForCO2(genPPMPerSlot(gen[zi], z.VolumeFt3), z.VolumeFt3, cond.ZoneCO2PPM[zi], cond.OutdoorCO2PPM, p.CO2SetpointPPM)
		q := min(max(qs, qf), p.MaxZoneCFM)
		demands[zi] = Demand{SupplyCFM: q, FreshCFM: min(qf, q)}
	}
	return demands
}

// ASHRAEController is the BIoTA-style baseline (Fig 3): ventilation by
// fixed per-person and per-area rates, cooling sized for an average design
// load rather than the instantaneous activity/appliance state. It
// over-supplies during low-intensity occupancy, which is exactly the
// inefficiency the paper's Fig 3 quantifies.
type ASHRAEController struct {
	Params Params
	// PersonCFM is the ASHRAE 62.2-style per-person fresh-air rate.
	PersonCFM float64
	// AreaCFMPerFt2 is the per-floor-area fresh-air rate applied to every
	// conditioned zone whenever anyone is home.
	AreaCFMPerFt2 float64
	// DesignMET is the average metabolic intensity assumed per occupant.
	DesignMET float64
	// DesignApplianceW is the average appliance load assumed per zone
	// (BIoTA's "fixed load at every control cycle", Table I).
	DesignApplianceW map[home.ZoneID]float64

	// Per-zone scratch reused across Plan calls.
	demands []Demand
	counts  []int
}

var _ Controller = (*ASHRAEController)(nil)

// NewASHRAEController returns the baseline with standard rates and a design
// appliance load derived from the house's appliance fit-out (40% duty
// estimate — historical-average sizing). Like SHATTERController, an
// instance reuses scratch buffers across Plan calls and must not be shared
// between concurrent simulations.
func NewASHRAEController(params Params, house *home.House) *ASHRAEController {
	design := make(map[home.ZoneID]float64)
	for _, appl := range house.Appliances {
		design[appl.Zone] += appl.HeatW() * 0.20
	}
	return &ASHRAEController{
		Params:           params,
		PersonCFM:        7.5,
		AreaCFMPerFt2:    0.06,
		DesignMET:        1.4,
		DesignApplianceW: design,
	}
}

// Name implements Controller.
func (c *ASHRAEController) Name() string { return "ASHRAE" }

// Plan implements Controller. The returned demand slice is valid until the
// next Plan call.
func (c *ASHRAEController) Plan(house *home.House, believed []OccupantObs, _ []bool, cond ZoneConditions) []Demand {
	p := c.Params
	nz := len(house.Zones)
	if cap(c.demands) < nz {
		c.demands = make([]Demand, nz)
		c.counts = make([]int, nz)
	}
	demands, counts := c.demands[:nz], c.counts[:nz]
	for zi := 0; zi < nz; zi++ {
		demands[zi] = Demand{}
		counts[zi] = 0
	}
	anyoneHome := false
	for _, ob := range believed {
		if ob.Zone.Conditioned() {
			counts[ob.Zone]++
			anyoneHome = true
		}
	}
	if !anyoneHome {
		return demands
	}
	for zi := range house.Zones {
		z := house.Zones[zi]
		if !z.ID.Conditioned() {
			continue
		}
		// Ventilation: people + area terms, area term on whenever occupied
		// mode is active (someone home), people term from counted heads.
		qf := c.PersonCFM*float64(counts[zi]) + c.AreaCFMPerFt2*z.AreaFt2
		// Cooling: design load = average occupant heat + average appliance
		// load + design-day envelope, independent of actual activities.
		heat := float64(counts[zi])*c.DesignMET*home.SensibleHeatWPerMET +
			c.DesignApplianceW[z.ID] +
			p.EnvelopeUAWPerF2*z.AreaFt2*max(0, cond.OutdoorTempF-p.ZoneSetpointF)
		qs := supplyAirForHeat(heat, p.ZoneSetpointF, p.SupplyAirTempF)
		q := min(max(qs, qf), p.MaxZoneCFM)
		demands[zi] = Demand{SupplyCFM: q, FreshCFM: min(qf, q)}
	}
	return demands
}
