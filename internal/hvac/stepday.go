package hvac

import (
	"errors"
	"fmt"
	"math/bits"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/home"
)

// DayInput is one whole day of boundary conditions and observations in
// struct-of-arrays layout: per-slot weather columns, per-occupant columns
// of aras.SlotsPerDay entries each, and per-appliance columns packed a bit
// per slot. StepDay advances a
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
	// BelievedAppliance[a] is the believed status column of appliance a,
	// packed a bit per slot (aras.ColumnBytes bytes, read with aras.Bit).
	BelievedAppliance [][]byte
	// ActualZone/ActualAct/ActualAppliance are the ground-truth columns that
	// drive the plant's CO2 mass balance and the energy metering (really
	// triggered appliances included).
	ActualZone      [][]home.ZoneID
	ActualAct       [][]home.ActivityID
	ActualAppliance [][]byte
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
		if len(in.BelievedAppliance[a]) != aras.ColumnBytes || len(in.ActualAppliance[a]) != aras.ColumnBytes {
			return fmt.Errorf("hvac: DayInput appliance %d column not %d bytes", a, aras.ColumnBytes)
		}
	}
	return nil
}

// dayScratch holds StepDay's reusable working state.
type dayScratch struct {
	// change[t] marks a slot where some believed or actual column differs
	// from slot t−1: the start of a segment whose loads must be re-derived.
	// change[0] is always set.
	change [aras.SlotsPerDay]bool
	zones  []zoneDay
	appls  []applianceDay
	// Per-segment active sets, ascending so skipped entries match the zero
	// entries the per-slot loops skip.
	zonesBel []int // conditioned zones with believed occupancy
	zonesCO2 []int // conditioned zones needing a CO2 update
	onAppl   []int // actually-on appliances

	// Generic-controller fallback: per-slot StepInput views over the columns.
	believed    []OccupantObs
	actual      []OccupantObs
	believedApp []bool
	actualApp   []bool
}

// zoneDay is one zone's StepDay working state.
type zoneDay struct {
	// Per day.
	conditioned bool
	volumeFt3   float64
	envelopeUA  float64 // UA·area, W/°F
	// Per segment.
	occupied  bool
	heatBase  float64 // believed occupant+appliance heat, before envelope
	genBel    float64 // believed CO2 generation, ft³/min
	genBelPPM float64 // genBel as ppm per slot (the controller's qf input)
	genAct    float64 // ground-truth CO2 generation, ft³/min
	genActPPM float64 // genAct as ppm per slot (the plant mass balance)
	// Per slot.
	fresh float64 // delivered fresh CFM
}

// applianceDay is one appliance's StepDay constants.
type applianceDay struct {
	zone    home.ZoneID
	heatW   float64 // believed-load heat when reported on
	powerW  float64 // electrical draw when actually on
	slotKWh float64 // powerW over one slot
}

func (sc *dayScratch) ensure(house *home.House) {
	nz, appl := len(house.Zones), len(house.Appliances)
	if len(sc.zones) != nz {
		sc.zones = make([]zoneDay, nz)
		sc.zonesBel = make([]int, 0, nz)
		sc.zonesCO2 = make([]int, 0, nz)
	}
	if len(sc.appls) != appl {
		sc.appls = make([]applianceDay, appl)
		sc.onAppl = make([]int, 0, appl)
	}
}

// ensureSlotViews sizes the generic-controller fallback's per-slot views.
func (sc *dayScratch) ensureSlotViews(occ, appl int) {
	if len(sc.believed) != occ {
		sc.believed = make([]OccupantObs, occ)
		sc.actual = make([]OccupantObs, occ)
	}
	if len(sc.believedApp) != appl {
		sc.believedApp = make([]bool, appl)
		sc.actualApp = make([]bool, appl)
	}
}

// StepDay advances the plant and the accounting by one whole day over the
// struct-of-arrays columns. Results are bit-identical to aras.SlotsPerDay
// sequential Step calls over the same data. The paper-controller fast path
// scans every believed and actual column once to mark the slots where any
// of them changes value, and re-derives the per-zone loads only there
// (occupancy and appliance schedules are piecewise-constant, so a day has
// ~10² segments rather than 1440 independent slots), while keeping every
// floating-point accumulation in the per-slot order. Controllers other
// than SHATTERController fall back to per-slot Step calls over reused
// scratch, which is the equivalence definition itself.
func (s *Sim) StepDay(in *DayInput) error {
	if s.slot != 0 {
		return fmt.Errorf("%w (day %d slot %d)", ErrNotDayBoundary, s.day, s.slot)
	}
	if err := in.validate(s.house); err != nil {
		return err
	}
	if c, ok := s.ctrl.(*SHATTERController); ok {
		s.stepDaySHATTER(c, in)
		return nil
	}
	sc := &s.scratch
	sc.ensureSlotViews(len(s.house.Occupants), len(s.house.Appliances))
	for t := 0; t < aras.SlotsPerDay; t++ {
		for o := range sc.believed {
			sc.believed[o] = OccupantObs{Zone: in.BelievedZone[o][t], Activity: in.BelievedAct[o][t]}
			sc.actual[o] = OccupantObs{Zone: in.ActualZone[o][t], Activity: in.ActualAct[o][t]}
		}
		for a := range sc.believedApp {
			sc.believedApp[a] = aras.Bit(in.BelievedAppliance[a], t)
			sc.actualApp[a] = aras.Bit(in.ActualAppliance[a], t)
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
// pricing-dependent terms run per slot. The day's energy and cost sums
// accumulate in locals, in Step's order, and are written back once.
func (s *Sim) stepDaySHATTER(c *SHATTERController, in *DayInput) {
	cp := c.Params // the controller's planning parameters
	sp := s.params // the plant's metering parameters
	pr := s.pricing
	sc := &s.scratch
	sc.ensure(s.house)
	sc.markChanges(in)
	for zi := range sc.zones {
		z, hz := &sc.zones[zi], &s.house.Zones[zi]
		z.conditioned = hz.ID.Conditioned()
		z.volumeFt3 = hz.VolumeFt3
		z.envelopeUA = cp.EnvelopeUAWPerF2 * hz.AreaFt2
	}
	for ai := range sc.appls {
		a, ha := &sc.appls[ai], &s.house.Appliances[ai]
		a.zone, a.heatW, a.powerW = ha.Zone, ha.HeatW(), ha.PowerW
		a.slotKWh = ha.PowerW * SlotMinutes / 60000
	}
	baseSlotKWh := sp.BaseLoadW * SlotMinutes / 60000

	// Day-boundary bookkeeping, exactly as Step's slot-0 branch.
	for zi := range s.zoneCO2 {
		if s.zoneCO2[zi] == 0 {
			s.zoneCO2[zi] = in.OutdoorCO2PPM[0]
		}
	}
	var peakKWh, dayKWh, dayCost float64
	coilKWh, fanKWh := s.res.CoilKWh, s.res.FanKWh
	applKWh, baseKWh := s.res.ApplianceKWh, s.res.BaseKWh
	zoneCO2, zoneCoilKWh := s.zoneCO2, s.res.ZoneCoilKWh
	outTemp, outCO2 := in.OutdoorTempF[:aras.SlotsPerDay], in.OutdoorCO2PPM[:aras.SlotsPerDay]

	for t := range sc.change {
		if sc.change[t] {
			s.loadSegment(in, t)
		}
		outT, outC := outTemp[t], outCO2[t]
		envelopeDT := max(0, outT-cp.ZoneSetpointF)
		var slotW float64
		for _, zi := range sc.zonesBel {
			z := &sc.zones[zi]
			// Plan: envelope gain on top of the segment's base load.
			heat := z.heatBase + z.envelopeUA*envelopeDT
			qs := supplyAirForHeat(heat, cp.ZoneSetpointF, cp.SupplyAirTempF)
			qf := freshAirForCO2(z.genBelPPM, z.volumeFt3, zoneCO2[zi], outC, cp.CO2SetpointPPM)
			q := min(max(qs, qf), cp.MaxZoneCFM)
			fresh := min(qf, q)
			z.fresh = fresh
			if q <= 0 {
				continue
			}
			// Meter: Step's energy loop over the demanded zones.
			tMix := mixedAirTempF(Demand{SupplyCFM: q, FreshCFM: fresh}, outT, sp.ZoneSetpointF)
			coil := coilW(q, tMix, sp.SupplyAirTempF)
			fanW := q * sp.FanWPerCFM
			slotW += coil + fanW
			coilKWh += coil * SlotMinutes / 60000
			fanKWh += fanW * SlotMinutes / 60000
			zoneCoilKWh[zi] += (coil + fanW) * SlotMinutes / 60000
		}
		for _, ai := range sc.onAppl {
			a := &sc.appls[ai]
			slotW += a.powerW
			applKWh += a.slotKWh
		}
		slotW += sp.BaseLoadW
		baseKWh += baseSlotKWh

		slotKWh := slotW * SlotMinutes / 60000
		rate := pr.RateAt(t, peakKWh)
		if pr.InPeak(t) {
			peakKWh += slotKWh
		}
		dayKWh += slotKWh
		dayCost += slotKWh * rate

		for _, zi := range sc.zonesCO2 {
			z := &sc.zones[zi]
			zoneCO2[zi] = nextZoneCO2(zoneCO2[zi], z.fresh, z.volumeFt3, outC, z.genActPPM)
		}
	}
	s.peakKWh = peakKWh
	s.res.CoilKWh, s.res.FanKWh = coilKWh, fanKWh
	s.res.ApplianceKWh, s.res.BaseKWh = applKWh, baseKWh
	s.res.DailyCostUSD = append(s.res.DailyCostUSD, dayCost)
	s.res.DailyKWh = append(s.res.DailyKWh, dayKWh)
	s.res.TotalCostUSD += dayCost
	s.res.TotalKWh += dayKWh
	s.day++
}

// loadSegment derives the loads of the segment starting at slot t from the
// columns' values there: per-zone believed heat and CO2 generation
// (occupant adds, then appliance adds — the order SHATTERController.Plan
// accumulates in), ground-truth generation (occupant adds in o order, as
// stepCO2), and the active zone and appliance sets.
func (s *Sim) loadSegment(in *DayInput, t int) {
	sc := &s.scratch
	for zi := range sc.zones {
		z := &sc.zones[zi]
		z.occupied = false
		z.heatBase, z.genBel, z.genAct, z.fresh = 0, 0, 0, 0
	}
	for o := range in.BelievedZone {
		zid := in.BelievedZone[o][t]
		if !zid.Conditioned() {
			continue
		}
		demo := s.house.Occupants[o].Demographics
		act := home.ActivityByID(in.BelievedAct[o][t])
		z := &sc.zones[zid]
		z.heatBase += act.HeatW(demo)
		z.genBel += act.CO2Ft3PerMin(demo)
		z.occupied = true
	}
	for ai := range sc.appls {
		if aras.Bit(in.BelievedAppliance[ai], t) {
			a := &sc.appls[ai]
			sc.zones[a.zone].heatBase += a.heatW
		}
	}
	for o := range in.ActualZone {
		zid := in.ActualZone[o][t]
		if !zid.Conditioned() {
			continue
		}
		demo := s.house.Occupants[o].Demographics
		sc.zones[zid].genAct += home.ActivityByID(in.ActualAct[o][t]).CO2Ft3PerMin(demo)
	}
	sc.zonesBel, sc.zonesCO2, sc.onAppl = sc.zonesBel[:0], sc.zonesCO2[:0], sc.onAppl[:0]
	for zi := range sc.zones {
		z := &sc.zones[zi]
		if !z.conditioned {
			continue
		}
		if z.occupied {
			sc.zonesBel = append(sc.zonesBel, zi)
			z.genBelPPM = genPPMPerSlot(z.genBel, z.volumeFt3)
		}
		// Zones with neither delivered fresh air nor generation keep their
		// CO2 unchanged ((1-0)·C + 0·out + 0 = C), so only zones with a
		// possible demand or positive generation need the update.
		if z.volumeFt3 > 0 && (z.occupied || z.genAct != 0) {
			sc.zonesCO2 = append(sc.zonesCO2, zi)
			z.genActPPM = genPPMPerSlot(z.genAct, z.volumeFt3)
		}
	}
	for ai := range sc.appls {
		if aras.Bit(in.ActualAppliance[ai], t) {
			sc.onAppl = append(sc.onAppl, ai)
		}
	}
}

// markChanges fills the change mask from one pass over every column.
func (sc *dayScratch) markChanges(in *DayInput) {
	sc.change = [aras.SlotsPerDay]bool{0: true}
	for o := range in.BelievedZone {
		markColumn(&sc.change, in.BelievedZone[o])
		markColumn(&sc.change, in.BelievedAct[o])
		markColumn(&sc.change, in.ActualZone[o])
		markColumn(&sc.change, in.ActualAct[o])
	}
	for a := range in.BelievedAppliance {
		markBits(&sc.change, in.BelievedAppliance[a])
		markBits(&sc.change, in.ActualAppliance[a])
	}
}

// markBits is markColumn for a packed appliance column: it scans the
// column's change bits a byte (eight slots) at a time and looks at single
// slots only in a byte that holds a change.
func markBits(mask *[aras.SlotsPerDay]bool, col []byte) {
	for i := range col[:aras.ColumnBytes] {
		for d := aras.ChangedBits(col, i); d != 0; d &= d - 1 {
			mask[8*i+bits.TrailingZeros8(d)] = true
		}
	}
}

// markColumn sets mask[t] at every slot t where col[t] differs from
// col[t−1]. Columns are piecewise-constant, so it tests eight slots at a
// time against the running value and looks at single slots only inside a
// block that holds a change; the 1439 slots after slot 0 are 179 blocks
// and a 7-slot tail.
func markColumn[T comparable](mask *[aras.SlotsPerDay]bool, col []T) {
	col = col[:aras.SlotsPerDay]
	v := col[0]
	t := 1
	for ; t+8 <= aras.SlotsPerDay; t += 8 {
		b := col[t : t+8 : t+8]
		if b[0] == v && b[1] == v && b[2] == v && b[3] == v &&
			b[4] == v && b[5] == v && b[6] == v && b[7] == v {
			continue
		}
		for i, x := range b {
			if x != v {
				mask[t+i] = true
				v = x
			}
		}
	}
	for ; t < aras.SlotsPerDay; t++ {
		if col[t] != v {
			mask[t] = true
			v = col[t]
		}
	}
}
