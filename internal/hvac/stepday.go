package hvac

import (
	"errors"
	"fmt"
	"math"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/home"
)

// DayInput is one whole day of boundary conditions and observations in
// struct-of-arrays layout: per-slot weather columns plus per-occupant and
// per-appliance columns of aras.SlotsPerDay entries each. StepDay advances a
// full day over these contiguous columns without materializing 1440
// per-slot StepInputs. Batch Simulate points them at a trace day, the
// streaming layer at a DayBlock, and attack.Plan.FalsifyDay rewrites the
// believed columns (and the really-triggered appliances) of either in
// place. All slices are read synchronously during StepDay and may be reused
// by the caller afterwards.
type DayInput struct {
	// OutdoorTempF and OutdoorCO2PPM are the day's weather columns.
	OutdoorTempF  []float64
	OutdoorCO2PPM []float64
	// BelievedZone[o][t] / BelievedAct[o][t] are the controller's per-slot
	// observation of occupant o (falsified under attack).
	BelievedZone [][]home.ZoneID
	BelievedAct  [][]home.ActivityID
	// BelievedAppliance[a][t] is the believed status column of appliance a.
	BelievedAppliance [][]bool
	// ActualZone/ActualAct/ActualAppliance are the ground-truth columns that
	// drive the plant's CO2 mass balance and the energy metering (really
	// triggered appliances included).
	ActualZone      [][]home.ZoneID
	ActualAct       [][]home.ActivityID
	ActualAppliance [][]bool
}

// ErrNotDayBoundary is returned when StepDay is called with the simulator
// positioned mid-day; day batching only composes with whole-day advancement.
var ErrNotDayBoundary = errors.New("hvac: StepDay only at a day boundary")

func (in *DayInput) validate(house *home.House) error {
	if len(in.OutdoorTempF) != aras.SlotsPerDay || len(in.OutdoorCO2PPM) != aras.SlotsPerDay {
		return fmt.Errorf("hvac: DayInput weather columns sized %d/%d, want %d",
			len(in.OutdoorTempF), len(in.OutdoorCO2PPM), aras.SlotsPerDay)
	}
	occ, appl := len(house.Occupants), len(house.Appliances)
	if len(in.BelievedZone) != occ || len(in.BelievedAct) != occ ||
		len(in.ActualZone) != occ || len(in.ActualAct) != occ {
		return fmt.Errorf("hvac: DayInput occupant columns sized %d/%d/%d/%d, want %d",
			len(in.BelievedZone), len(in.BelievedAct), len(in.ActualZone), len(in.ActualAct), occ)
	}
	if len(in.BelievedAppliance) != appl || len(in.ActualAppliance) != appl {
		return fmt.Errorf("hvac: DayInput appliance columns sized %d/%d, want %d",
			len(in.BelievedAppliance), len(in.ActualAppliance), appl)
	}
	for o := 0; o < occ; o++ {
		if len(in.BelievedZone[o]) != aras.SlotsPerDay || len(in.BelievedAct[o]) != aras.SlotsPerDay ||
			len(in.ActualZone[o]) != aras.SlotsPerDay || len(in.ActualAct[o]) != aras.SlotsPerDay {
			return fmt.Errorf("hvac: DayInput occupant %d column not %d slots", o, aras.SlotsPerDay)
		}
	}
	for a := 0; a < appl; a++ {
		if len(in.BelievedAppliance[a]) != aras.SlotsPerDay || len(in.ActualAppliance[a]) != aras.SlotsPerDay {
			return fmt.Errorf("hvac: DayInput appliance %d column not %d slots", a, aras.SlotsPerDay)
		}
	}
	return nil
}

// dayScratch holds StepDay's reusable per-zone/per-appliance working state.
type dayScratch struct {
	heatBase []float64 // believed occupant+appliance heat, before envelope
	genBel   []float64 // believed CO2 generation (controller's qf input)
	genAct   []float64 // ground-truth CO2 generation (plant mass balance)
	genPPM   []float64 // genAct converted to ppm per slot, per zone
	fresh    []float64 // delivered fresh CFM this slot, per zone
	occupied []bool
	zonesBel []int // conditioned zones with believed occupancy, ascending
	zonesCO2 []int // conditioned zones needing a CO2 update, ascending
	onAppl   []int // actually-on appliances, ascending

	// Generic-controller fallback: per-slot StepInput views over the columns.
	believed    []OccupantObs
	actual      []OccupantObs
	believedApp []bool
	actualApp   []bool
}

func (sc *dayScratch) ensure(house *home.House) {
	nz, occ, appl := len(house.Zones), len(house.Occupants), len(house.Appliances)
	if len(sc.heatBase) != nz {
		sc.heatBase = make([]float64, nz)
		sc.genBel = make([]float64, nz)
		sc.genAct = make([]float64, nz)
		sc.genPPM = make([]float64, nz)
		sc.fresh = make([]float64, nz)
		sc.occupied = make([]bool, nz)
		sc.zonesBel = make([]int, 0, nz)
		sc.zonesCO2 = make([]int, 0, nz)
	}
	if len(sc.believed) != occ {
		sc.believed = make([]OccupantObs, occ)
		sc.actual = make([]OccupantObs, occ)
	}
	if len(sc.believedApp) != appl {
		sc.believedApp = make([]bool, appl)
		sc.actualApp = make([]bool, appl)
		sc.onAppl = make([]int, 0, appl)
	}
}

// StepDay advances the plant and the accounting by one whole day over the
// struct-of-arrays columns. Results are bit-identical to aras.SlotsPerDay
// sequential Step calls over the same data: the paper-controller fast path
// re-derives per-zone loads only at slots where some believed or actual
// column changes value (occupancy and appliance schedules are piecewise-
// constant, so a day has ~10² segments rather than 1440 independent slots)
// while keeping every floating-point accumulation in the per-slot order.
// Controllers other than SHATTERController fall back to per-slot Step calls
// over reused scratch, which is the equivalence definition itself.
func (s *Sim) StepDay(in *DayInput) error {
	if s.slot != 0 {
		return fmt.Errorf("%w (day %d slot %d)", ErrNotDayBoundary, s.day, s.slot)
	}
	if err := in.validate(s.house); err != nil {
		return err
	}
	s.scratch.ensure(s.house)
	if c, ok := s.ctrl.(*SHATTERController); ok {
		s.stepDaySHATTER(c, in)
		return nil
	}
	sc := &s.scratch
	for t := 0; t < aras.SlotsPerDay; t++ {
		for o := range sc.believed {
			sc.believed[o] = OccupantObs{Zone: in.BelievedZone[o][t], Activity: in.BelievedAct[o][t]}
			sc.actual[o] = OccupantObs{Zone: in.ActualZone[o][t], Activity: in.ActualAct[o][t]}
		}
		for a := range sc.believedApp {
			sc.believedApp[a] = in.BelievedAppliance[a][t]
			sc.actualApp[a] = in.ActualAppliance[a][t]
		}
		s.Step(StepInput{
			OutdoorTempF:      in.OutdoorTempF[t],
			OutdoorCO2PPM:     in.OutdoorCO2PPM[t],
			Believed:          sc.believed,
			BelievedAppliance: sc.believedApp,
			ActualOccupants:   sc.actual,
			ActualAppliance:   sc.actualApp,
		})
	}
	return nil
}

// stepDaySHATTER is the segment-amortized day stepper for the paper's
// controller. Within a segment — a maximal slot run where every believed and
// actual column is constant — the per-zone occupant/appliance loads, the
// active-zone sets, and the plant's CO2 generation terms are fixed, so they
// are derived once (with additions in exactly the per-slot order, keeping
// the floating-point results bit-identical) and only the weather-, CO2- and
// pricing-dependent terms run per slot.
func (s *Sim) stepDaySHATTER(c *SHATTERController, in *DayInput) {
	cp := c.Params // the controller's planning parameters
	sp := s.params // the plant's metering parameters
	sc := &s.scratch
	d := s.day
	// Day-boundary bookkeeping, exactly as Step's slot-0 branch.
	for zi := range s.zoneCO2 {
		if s.zoneCO2[zi] == 0 {
			s.zoneCO2[zi] = in.OutdoorCO2PPM[0]
		}
	}
	s.peakKWh = 0
	s.res.DailyCostUSD = append(s.res.DailyCostUSD, 0)
	s.res.DailyKWh = append(s.res.DailyKWh, 0)

	for t0 := 0; t0 < aras.SlotsPerDay; {
		t1 := segmentEnd(in, t0)
		// Per-zone believed loads, occupant adds then appliance adds — the
		// accumulation order SHATTERController.Plan uses.
		for zi := range sc.heatBase {
			sc.heatBase[zi], sc.genBel[zi], sc.genAct[zi], sc.fresh[zi] = 0, 0, 0, 0
			sc.occupied[zi] = false
		}
		for o := range in.BelievedZone {
			z := in.BelievedZone[o][t0]
			if !z.Conditioned() {
				continue
			}
			demo := s.house.Occupants[o].Demographics
			act := home.ActivityByID(in.BelievedAct[o][t0])
			sc.heatBase[z] += act.HeatW(demo)
			sc.genBel[z] += act.CO2Ft3PerMin(demo)
			sc.occupied[z] = true
		}
		for ai := range s.house.Appliances {
			if in.BelievedAppliance[ai][t0] {
				appl := &s.house.Appliances[ai]
				sc.heatBase[appl.Zone] += appl.HeatW()
			}
		}
		// Ground-truth CO2 generation (occupant adds in o order, as stepCO2).
		for o := range in.ActualZone {
			z := in.ActualZone[o][t0]
			if !z.Conditioned() {
				continue
			}
			demo := s.house.Occupants[o].Demographics
			act := home.ActivityByID(in.ActualAct[o][t0])
			sc.genAct[z] += act.CO2Ft3PerMin(demo)
		}
		// Active sets, ascending zone/appliance index so skipped entries
		// match the zero entries the per-slot loops skip.
		sc.zonesBel, sc.zonesCO2, sc.onAppl = sc.zonesBel[:0], sc.zonesCO2[:0], sc.onAppl[:0]
		for zi := range s.house.Zones {
			z := &s.house.Zones[zi]
			if !z.ID.Conditioned() {
				continue
			}
			if sc.occupied[zi] {
				sc.zonesBel = append(sc.zonesBel, zi)
			}
			// Zones with neither delivered fresh air nor generation keep
			// their CO2 unchanged ((1-0)·C + 0·out + 0 = C), so only zones
			// with a possible demand or positive generation need the update.
			if z.VolumeFt3 > 0 && (sc.occupied[zi] || sc.genAct[zi] != 0) {
				sc.zonesCO2 = append(sc.zonesCO2, zi)
				sc.genPPM[zi] = sc.genAct[zi] * SlotMinutes / z.VolumeFt3 * 1e6
			}
		}
		for ai := range s.house.Appliances {
			if in.ActualAppliance[ai][t0] {
				sc.onAppl = append(sc.onAppl, ai)
			}
		}

		for t := t0; t < t1; t++ {
			outT, outC := in.OutdoorTempF[t], in.OutdoorCO2PPM[t]
			var slotW float64
			for _, zi := range sc.zonesBel {
				z := &s.house.Zones[zi]
				// Plan: envelope gain on top of the segment's base load.
				heat := sc.heatBase[zi] + cp.EnvelopeUAWPerF2*z.AreaFt2*math.Max(0, outT-cp.ZoneSetpointF)
				qs := supplyAirForHeat(heat, cp.ZoneSetpointF, cp.SupplyAirTempF)
				qf := freshAirForCO2(sc.genBel[zi], z.VolumeFt3, s.zoneCO2[zi], outC, cp.CO2SetpointPPM)
				q := math.Min(math.Max(qs, qf), cp.MaxZoneCFM)
				fresh := math.Min(qf, q)
				sc.fresh[zi] = fresh
				if q <= 0 {
					continue
				}
				// Meter: Step's energy loop over the demanded zones.
				tMix := mixedAirTempF(Demand{SupplyCFM: q, FreshCFM: fresh}, outT, sp.ZoneSetpointF)
				coilW := q * math.Max(0, tMix-sp.SupplyAirTempF) * SensibleHeatFactor
				fanW := q * sp.FanWPerCFM
				slotW += coilW + fanW
				kwh := (coilW + fanW) * SlotMinutes / 60000
				s.res.CoilKWh += coilW * SlotMinutes / 60000
				s.res.FanKWh += fanW * SlotMinutes / 60000
				s.res.ZoneCoilKWh[zi] += kwh
			}
			for _, ai := range sc.onAppl {
				appl := &s.house.Appliances[ai]
				slotW += appl.PowerW
				s.res.ApplianceKWh += appl.PowerW * SlotMinutes / 60000
			}
			slotW += sp.BaseLoadW
			s.res.BaseKWh += sp.BaseLoadW * SlotMinutes / 60000

			slotKWh := slotW * SlotMinutes / 60000
			rate := s.pricing.RateAt(t, s.peakKWh)
			if s.pricing.InPeak(t) {
				s.peakKWh += slotKWh
			}
			s.res.DailyKWh[d] += slotKWh
			s.res.DailyCostUSD[d] += slotKWh * rate

			for _, zi := range sc.zonesCO2 {
				z := &s.house.Zones[zi]
				r := math.Min(sc.fresh[zi]*SlotMinutes/z.VolumeFt3, 1)
				s.zoneCO2[zi] = (1-r)*s.zoneCO2[zi] + r*outC + sc.genPPM[zi]
			}
		}
		t0 = t1
	}
	s.res.TotalCostUSD += s.res.DailyCostUSD[d]
	s.res.TotalKWh += s.res.DailyKWh[d]
	s.day++
}

// segmentEnd returns the end (exclusive) of the maximal run starting at t0
// over which every believed and actual column holds its t0 value.
func segmentEnd(in *DayInput, t0 int) int {
	t1 := aras.SlotsPerDay
	for o := range in.BelievedZone {
		t1 = runEnd(in.BelievedZone[o], t0, t1)
		t1 = runEnd(in.BelievedAct[o], t0, t1)
		t1 = runEnd(in.ActualZone[o], t0, t1)
		t1 = runEnd(in.ActualAct[o], t0, t1)
	}
	for a := range in.BelievedAppliance {
		t1 = runEnd(in.BelievedAppliance[a], t0, t1)
		t1 = runEnd(in.ActualAppliance[a], t0, t1)
	}
	return t1
}

// runEnd narrows bound to the first index in (t0, bound) where col departs
// from its t0 value.
func runEnd[T comparable](col []T, t0, bound int) int {
	v := col[t0]
	for t := t0 + 1; t < bound; t++ {
		if col[t] != v {
			return t
		}
	}
	return bound
}
