package stream

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"github.com/acyd-lab/shatter/internal/adm"
	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/attack"
	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/hvac"
)

// testWorld generates a paper house's batch trace and a DBSCAN defender
// trained on its first trainDays days — the shared fixture the equivalence
// tests replay through the streaming runtime.
func testWorld(t *testing.T, name string, days, trainDays int) (*aras.Trace, *adm.Model) {
	t.Helper()
	house := home.MustHouse(name)
	tr, err := aras.Generate(house, aras.GeneratorConfig{Days: days, Seed: 2024})
	if err != nil {
		t.Fatal(err)
	}
	train, err := tr.SubTrace(0, trainDays)
	if err != nil {
		t.Fatal(err)
	}
	cfg := adm.DefaultConfig(adm.DBSCAN)
	cfg.MinPts = 3
	cfg.Eps = 30
	model, err := adm.Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr, model
}

// slotSource is a Source that also serves the per-slot reference view —
// both repository sources do; the equivalence tests drive it through the
// per-slot reference slotHome.Ingest.
type slotSource interface {
	Source
	Next(dst *Slot) error
}

// drive pulls src to end-of-stream through h one slot at a time, invoking
// observe (when non-nil) on each slot after Ingest rewrote it.
func drive(t *testing.T, src slotSource, h *Home, observe func(*Slot)) HomeResult {
	t.Helper()
	r := newSlotHome(h)
	var s Slot
	for {
		if err := src.Next(&s); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Ingest(&s); err != nil {
			t.Fatal(err)
		}
		if observe != nil {
			observe(&s)
		}
	}
	res, err := h.Close()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// verdictKey uniquely identifies an episode within a home's stream.
func verdictKey(e aras.Episode) [3]int { return [3]int{e.Day, e.Occupant, e.ArrivalSlot} }

// checkVerdictOrder asserts the OnVerdict emission order: days never
// interleave, and within a day verdicts come by ascending close slot
// (ArrivalSlot+Duration), ties by ascending occupant.
func checkVerdictOrder(t *testing.T, label string, vs []adm.Verdict) {
	t.Helper()
	for i := 1; i < len(vs); i++ {
		p, c := vs[i-1].Episode, vs[i].Episode
		pEnd, cEnd := p.ArrivalSlot+p.Duration, c.ArrivalSlot+c.Duration
		switch {
		case c.Day < p.Day:
			t.Fatalf("%s: verdict %d (day %d) after a day-%d verdict", label, i, c.Day, p.Day)
		case c.Day > p.Day:
		case cEnd < pEnd || (cEnd == pEnd && c.Occupant <= p.Occupant):
			t.Fatalf("%s: day %d verdict %d closes at (%d, occupant %d) after (%d, occupant %d)",
				label, c.Day, i, cEnd, c.Occupant, pEnd, p.Occupant)
		}
	}
}

// TestHomeStreamMatchesBatchBenign replays houses A and B through the full
// streaming pipeline (incremental generator → online detector → HVAC
// stepper) and pins everything to the batch path byte-for-byte: the ground
// truth trace, the controller's energy/cost result, and every ADM verdict.
func TestHomeStreamMatchesBatchBenign(t *testing.T) {
	params := hvac.DefaultParams()
	pricing := hvac.DefaultPricing()
	for _, name := range []string{"A", "B"} {
		const days, trainDays = 8, 6
		batchTrace, model := testWorld(t, name, days, trainDays)

		batchSim, err := hvac.Simulate(batchTrace, &hvac.SHATTERController{Params: params}, params, pricing)
		if err != nil {
			t.Fatal(err)
		}
		batchVerdicts := make(map[[3]int]adm.Verdict)
		for d := 0; d < batchTrace.NumDays(); d++ {
			for o := range batchTrace.House.Occupants {
				for _, e := range batchTrace.DayEpisodes(d, o) {
					batchVerdicts[verdictKey(e)] = adm.Verdict{Episode: e, Anomalous: model.EpisodeAnomalous(e)}
				}
			}
		}

		house := home.MustHouse(name)
		gen, err := aras.NewGenerator(house, aras.GeneratorConfig{Days: days, Seed: 2024})
		if err != nil {
			t.Fatal(err)
		}
		var streamed []adm.Verdict
		h, err := NewHome(HomeConfig{
			ID:        name,
			House:     house,
			Params:    params,
			Pricing:   pricing,
			Defender:  model,
			OnVerdict: func(v adm.Verdict) { streamed = append(streamed, v) },
		})
		if err != nil {
			t.Fatal(err)
		}
		rebuilt := &aras.Trace{House: house}
		res := drive(t, NewGeneratorSource(name, gen), h, func(s *Slot) {
			if s.Index == 0 {
				rebuilt.Days = append(rebuilt.Days, aras.NewDay(len(house.Occupants), len(house.Appliances)))
				rebuilt.Weather = append(rebuilt.Weather, aras.Weather{
					TempF:  make([]float64, aras.SlotsPerDay),
					CO2PPM: make([]float64, aras.SlotsPerDay),
				})
			}
			day := &rebuilt.Days[s.Day]
			for o, r := range s.True {
				day.Zone[o][s.Index] = r.Zone
				day.Act[o][s.Index] = r.Activity
			}
			for a, on := range s.TrueAppliance {
				aras.SetBit(day.Appliance[a], s.Index, on)
			}
			rebuilt.Weather[s.Day].TempF[s.Index] = s.OutdoorTempF
			rebuilt.Weather[s.Day].CO2PPM[s.Index] = s.OutdoorCO2PPM
		})

		// Ground truth: the streamed frames reassemble the batch trace
		// byte-for-byte (CSV encoding) including the weather series.
		var want, got bytes.Buffer
		if err := batchTrace.WriteCSV(&want); err != nil {
			t.Fatal(err)
		}
		if err := rebuilt.WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("house %s: streamed trace differs from batch trace", name)
		}
		if !reflect.DeepEqual(batchTrace.Weather, rebuilt.Weather) {
			t.Errorf("house %s: streamed weather differs from batch weather", name)
		}

		// Controller accounting: bit-identical hvac.Result.
		if !reflect.DeepEqual(batchSim, res.Sim) {
			t.Errorf("house %s: streamed sim result differs from batch\nbatch:    %+v\nstreamed: %+v", name, batchSim, res.Sim)
		}

		// Detection: every online verdict matches its batch counterpart, in
		// close order.
		checkVerdictOrder(t, "house "+name, streamed)
		if len(streamed) != len(batchVerdicts) {
			t.Fatalf("house %s: %d streamed verdicts, %d batch", name, len(streamed), len(batchVerdicts))
		}
		anomalies := int64(0)
		for _, v := range streamed {
			want, ok := batchVerdicts[verdictKey(v.Episode)]
			if !ok {
				t.Fatalf("house %s: streamed episode %+v not in batch set", name, v.Episode)
			}
			if !reflect.DeepEqual(v, want) {
				t.Fatalf("house %s: verdict mismatch\nstreamed: %+v\nbatch:    %+v", name, v, want)
			}
			if v.Anomalous {
				anomalies++
			}
		}
		if res.Verdicts != int64(len(batchVerdicts)) || res.Anomalies != anomalies {
			t.Errorf("house %s: counters %d/%d, want %d/%d", name, res.Verdicts, res.Anomalies, len(batchVerdicts), anomalies)
		}
		if res.Days != days || res.Slots != int64(days*aras.SlotsPerDay) {
			t.Errorf("house %s: %d days / %d slots, want %d / %d", name, res.Days, res.Slots, days, days*aras.SlotsPerDay)
		}
		if res.SensorEvents != res.Slots*int64(len(house.Occupants)+len(house.Appliances)) {
			t.Errorf("house %s: sensor events %d", name, res.SensorEvents)
		}
	}
}

// TestHomeStreamMatchesBatchAttacked streams a SHATTER campaign (sensor
// spoofing + appliance triggering) through the live injector and pins the
// attacked plant accounting, the per-slot falsified view, and the defender's
// injection labels to batch attack.EvaluateImpact.
func TestHomeStreamMatchesBatchAttacked(t *testing.T) {
	params := hvac.DefaultParams()
	pricing := hvac.DefaultPricing()
	for _, name := range []string{"A", "B"} {
		const days, trainDays = 6, 4
		tr, model := testWorld(t, name, days, trainDays)
		house := tr.House
		cap := attack.Full(house)
		pl := &attack.Planner{
			Trace:     tr,
			Model:     model,
			Cost:      hvac.NewCostModel(house, params, pricing),
			Cap:       cap,
			WindowLen: 10,
		}
		plan, err := pl.PlanSHATTER()
		if err != nil {
			t.Fatal(err)
		}
		attack.TriggerAppliances(tr, plan, model, cap)

		imp, err := attack.EvaluateImpact(tr, plan, model, &hvac.SHATTERController{Params: params}, params, pricing, attack.EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		batchInjected, batchFlagged := 0, 0
		for d := 0; d < tr.NumDays(); d++ {
			for o := range house.Occupants {
				for _, e := range plan.DayReportedEpisodes(tr, d, o) {
					if !e.Injected {
						continue
					}
					batchInjected++
					if model.EpisodeAnomalous(e.Episode) {
						batchFlagged++
					}
				}
			}
		}

		inj, err := NewInjector(house, plan)
		if err != nil {
			t.Fatal(err)
		}
		var streamed []adm.Verdict
		h, err := NewHome(HomeConfig{
			ID:        name,
			House:     house,
			Params:    params,
			Pricing:   pricing,
			Defender:  model,
			Injector:  inj,
			OnVerdict: func(v adm.Verdict) { streamed = append(streamed, v) },
		})
		if err != nil {
			t.Fatal(err)
		}
		res := drive(t, NewTraceSource(name, tr), h, func(s *Slot) {
			// The rewritten frame must reproduce the plan's falsified view.
			d, slot := s.Day, s.Index
			for o, r := range s.Reported {
				if r.Zone != plan.RepZone[d][o][slot] || r.Activity != plan.RepAct[d][o][slot] {
					t.Fatalf("house %s day %d slot %d occ %d: reported %+v, plan %v/%v", name, d, slot, o, r, plan.RepZone[d][o][slot], plan.RepAct[d][o][slot])
				}
			}
			for a := range s.ReportedAppliance {
				if s.ReportedAppliance[a] != believedApplianceOn(tr, plan, d, slot, a) {
					t.Fatalf("house %s day %d slot %d appl %d: believed status diverges from the oracle", name, d, slot, a)
				}
				if s.TrueAppliance[a] != actualApplianceOn(tr, plan, d, slot, a) {
					t.Fatalf("house %s day %d slot %d appl %d: actual status diverges from the oracle", name, d, slot, a)
				}
			}
		})

		checkVerdictOrder(t, "house "+name, streamed)
		if int64(len(streamed)) != res.Verdicts {
			t.Errorf("house %s: OnVerdict saw %d verdicts, result says %d", name, len(streamed), res.Verdicts)
		}
		if !reflect.DeepEqual(imp.Attacked, res.Sim) {
			t.Errorf("house %s: streamed attacked result differs from batch\nbatch:    %+v\nstreamed: %+v", name, imp.Attacked, res.Sim)
		}
		if int(res.Injected) != batchInjected || int(res.Flagged) != batchFlagged {
			t.Errorf("house %s: injection labels %d/%d, batch %d/%d", name, res.Injected, res.Flagged, batchInjected, batchFlagged)
		}
		if res.DetectedDays != imp.DetectedDays {
			t.Errorf("house %s: %d detected days, batch %d", name, res.DetectedDays, imp.DetectedDays)
		}
		var rate float64
		if res.Injected > 0 {
			rate = float64(res.Flagged) / float64(res.Injected)
		}
		if rate != imp.DetectionRate {
			t.Errorf("house %s: detection rate %v, batch %v", name, rate, imp.DetectionRate)
		}
	}
}

// actualApplianceOn is the per-slot reference for an appliance's true
// electrical state under attack: its trace status, or really triggered.
func actualApplianceOn(tr *aras.Trace, plan *attack.Plan, day, slot, a int) bool {
	return aras.Bit(tr.Days[day].Appliance[a], slot) || plan.TriggeredAt(day, a, slot)
}

// believedApplianceOn is the per-slot reference for the δ^D rule: appliance
// a reads "on" to the attacked controller when it really is on, or when a
// falsified presence's reported activity habitually uses it in its zone.
func believedApplianceOn(tr *aras.Trace, plan *attack.Plan, day, slot, a int) bool {
	if actualApplianceOn(tr, plan, day, slot, a) {
		return true
	}
	appl := tr.House.Appliances[a]
	for o := range plan.RepZone[day] {
		z := plan.RepZone[day][o][slot]
		if z != appl.Zone || z == tr.Days[day].Zone[o][slot] {
			continue // only falsified presences carry forged statuses
		}
		for _, ai := range tr.House.AppliancesForActivity(plan.RepAct[day][o][slot]) {
			if ai == a {
				return true
			}
		}
	}
	return false
}

// TestInjectorBeyondHorizon checks frames past the plan's campaign horizon
// pass through truthfully.
func TestInjectorBeyondHorizon(t *testing.T) {
	tr, model := testWorld(t, "A", 4, 2)
	short, err := tr.SubTrace(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	pl := &attack.Planner{
		Trace:     short,
		Model:     model,
		Cost:      hvac.NewCostModel(tr.House, hvac.DefaultParams(), hvac.DefaultPricing()),
		Cap:       attack.Full(tr.House),
		WindowLen: 10,
	}
	plan, err := pl.PlanBIoTA()
	if err != nil {
		t.Fatal(err)
	}
	inj, err := NewInjector(tr.House, plan)
	if err != nil {
		t.Fatal(err)
	}
	src := NewTraceSource("A", tr)
	var s Slot
	rewrote := false
	for {
		if err := src.Next(&s); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		inj.Rewrite(&s)
		if s.Day < 2 {
			for o := range s.Reported {
				if s.Reported[o].Zone != s.True[o].Zone {
					rewrote = true
				}
			}
			continue
		}
		for o := range s.Reported {
			if s.Reported[o] != s.True[o] {
				t.Fatalf("day %d slot %d: beyond-horizon occupancy rewritten", s.Day, s.Index)
			}
		}
		for a := range s.ReportedAppliance {
			if s.ReportedAppliance[a] != s.TrueAppliance[a] {
				t.Fatalf("day %d slot %d: beyond-horizon appliance status rewritten", s.Day, s.Index)
			}
		}
	}
	if !rewrote {
		t.Error("greedy plan never falsified a frame inside the horizon")
	}
}

// TestInjectionLedgerIsPerOccupant pins the batch DayReportedEpisodes
// semantics the day's labelling reproduces: a reported episode is compared
// against its OWN occupant's truth, so a falsified stay that happens to
// coincide with another occupant's real stay is still an injection.
func TestInjectionLedgerIsPerOccupant(t *testing.T) {
	house := home.MustHouse("A")
	var b DayBlock
	b.ensure(len(house.Occupants), len(house.Appliances))
	// Occupant 1 really stayed in zone 2 over [480, 540); occupant 0 stayed
	// in zone 1 all day.
	for t := range b.TrueZone[0] {
		b.TrueZone[0][t], b.TrueZone[1][t] = 1, 1
	}
	for t := 480; t < 540; t++ {
		b.TrueZone[1][t] = 2
	}
	stay := aras.Episode{Zone: 2, ArrivalSlot: 480, Duration: 60}
	occ0, occ1 := stay, stay
	occ0.Occupant, occ1.Occupant = 0, 1
	h := &Home{labeling: true, vcols: [][]adm.Verdict{
		// Occupant 0 reports the identical (zone, arrival, duration) triple —
		// absent from occupant 0's truth, hence injected.
		{{Episode: occ0, Anomalous: true}},
		// Occupant 1 reports their own real stay — ordinary FP surface.
		{{Episode: occ1, Anomalous: true}},
	}}
	h.labelDay(&b)
	if h.res.Injected != 1 || h.res.Flagged != 1 || h.res.DetectedDays != 1 {
		t.Fatalf("ledger %d injected / %d flagged / %d detected days, want 1/1/1: %+v",
			h.res.Injected, h.res.Flagged, h.res.DetectedDays, h.res)
	}
}

// TestStreamDayZeroAllocsSteadyState is the allocation-regression gate for
// the day path: once a home's pipeline is warm (two days on house A), a
// TraceSource NextBlock plus its IngestDay allocates nothing per day, for
// benign, defended, and attacked homes alike — no detection state outlives
// its day.
func TestStreamDayZeroAllocsSteadyState(t *testing.T) {
	const warm, runs = 2, 3
	tr, model := testWorld(t, "A", warm+runs+1, 2)
	plan := buildAttack(t, tr, model)
	params := hvac.DefaultParams()
	pricing := hvac.DefaultPricing()

	measure := func(defender *adm.Model, plan *attack.Plan) float64 {
		cfg := HomeConfig{ID: "A", House: tr.House, Params: params, Pricing: pricing, Defender: defender}
		if plan != nil {
			inj, err := NewInjector(tr.House, plan)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Injector = inj
		}
		h, err := NewHome(cfg)
		if err != nil {
			t.Fatal(err)
		}
		src := NewTraceSource("A", tr)
		var blk DayBlock
		day := func() {
			if err := src.NextBlock(&blk); err != nil {
				t.Fatal(err)
			}
			if _, err := h.IngestDay(&blk); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < warm; i++ {
			day()
		}
		// AllocsPerRun makes one extra warm-up call before its runs.
		return testing.AllocsPerRun(runs, day)
	}
	for _, tc := range []struct {
		label    string
		defender *adm.Model
		plan     *attack.Plan
	}{
		{"benign", nil, nil},
		{"defended", model, nil},
		{"attacked", model, plan},
	} {
		if allocs := measure(tc.defender, tc.plan); allocs != 0 {
			t.Errorf("%s day path: %.2f allocs/day after warm-up, want 0", tc.label, allocs)
		}
	}
}
