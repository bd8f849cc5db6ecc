package stream

import (
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"github.com/acyd-lab/shatter/internal/adm"
	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/attack"
	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/hvac"
)

// buildAttack plans a triggered SHATTER campaign over the fixture world —
// the shared setup for the attacked block-equivalence cases.
func buildAttack(t *testing.T, tr *aras.Trace, model *adm.Model) *attack.Plan {
	t.Helper()
	pl := &attack.Planner{
		Trace:     tr,
		Model:     model,
		Cost:      hvac.NewCostModel(tr.House, hvac.DefaultParams(), hvac.DefaultPricing()),
		Cap:       attack.Full(tr.House),
		WindowLen: 10,
	}
	plan, err := pl.PlanSHATTER()
	if err != nil {
		t.Fatal(err)
	}
	attack.TriggerAppliances(tr, plan, model, attack.Full(tr.House))
	return plan
}

// homePair builds two identically configured Homes (separate controller and
// injector instances — both hold per-run scratch).
func homePair(t *testing.T, name string, tr *aras.Trace, model *adm.Model, plan *attack.Plan) (slot, block *Home, slotV, blockV *[]adm.Verdict) {
	t.Helper()
	mk := func(streamed *[]adm.Verdict) *Home {
		cfg := HomeConfig{
			ID:      name,
			House:   tr.House,
			Params:  hvac.DefaultParams(),
			Pricing: hvac.DefaultPricing(),
			OnVerdict: func(v adm.Verdict) {
				*streamed = append(*streamed, v)
			},
		}
		if model != nil {
			cfg.Defender = model
		}
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
		return h
	}
	var sv, bv []adm.Verdict
	return mk(&sv), mk(&bv), &sv, &bv
}

// TestIngestDayMatchesIngest pins the day-block path to aras.SlotsPerDay
// calls of the per-slot reference: identical HomeResult (plant accounting,
// detection counters, injection labels) and identical verdict emission
// order, for benign, defended, and attacked pipelines on both paper
// houses.
func TestIngestDayMatchesIngest(t *testing.T) {
	for _, name := range []string{"A", "B"} {
		const days, trainDays = 6, 4
		tr, model := testWorld(t, name, days, trainDays)
		plan := buildAttack(t, tr, model)
		for _, tc := range []struct {
			label string
			model *adm.Model
			plan  *attack.Plan
		}{
			{"benign", nil, nil},
			{"defended", model, nil},
			{"attacked", model, plan},
		} {
			slotHome, blockHome, slotV, blockV := homePair(t, name, tr, tc.model, tc.plan)
			slotRes := drive(t, NewTraceSource(name, tr), slotHome, nil)

			src := NewTraceSource(name, tr)
			var blk DayBlock
			for {
				if err := src.NextBlock(&blk); err == io.EOF {
					break
				} else if err != nil {
					t.Fatal(err)
				}
				if _, err := blockHome.IngestDay(&blk); err != nil {
					t.Fatal(err)
				}
			}
			blockRes, err := blockHome.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(slotRes, blockRes) {
				t.Errorf("house %s %s: block result differs from slot result\nslot:  %+v\nblock: %+v", name, tc.label, slotRes, blockRes)
			}
			if !reflect.DeepEqual(*slotV, *blockV) {
				t.Errorf("house %s %s: verdict stream differs (%d slot vs %d block)", name, tc.label, len(*slotV), len(*blockV))
			}
		}
	}
}

// TestGeneratorBlockMatchesSlots pins GeneratorSource.NextBlock against the
// per-slot Next stream: the same frames decode out of the blocks, and a
// defended home fed blocks matches one fed slots.
func TestGeneratorBlockMatchesSlots(t *testing.T) {
	const days = 4
	house := home.MustHouse("A")
	mkGen := func() *aras.Generator {
		g, err := aras.NewGenerator(house, aras.GeneratorConfig{Days: days, Seed: 2024})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	slotSrc := NewGeneratorSource("A", mkGen())
	blockSrc := NewGeneratorSource("A", mkGen())
	var s, fromBlock Slot
	var blk DayBlock
	for d := 0; d < days; d++ {
		if err := blockSrc.NextBlock(&blk); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < aras.SlotsPerDay; i++ {
			if err := slotSrc.Next(&s); err != nil {
				t.Fatal(err)
			}
			blk.Slot(&fromBlock, i)
			if !reflect.DeepEqual(s, fromBlock) {
				t.Fatalf("day %d slot %d: block decode differs from slot stream\nslot:  %+v\nblock: %+v", d, i, s, fromBlock)
			}
		}
	}
	if err := blockSrc.NextBlock(&blk); err != io.EOF {
		t.Fatalf("block stream past bound: %v, want io.EOF", err)
	}
}

// TestIngestDayHygiene covers the block path's stream-order cross-checks.
func TestIngestDayHygiene(t *testing.T) {
	house := home.MustHouse("A")
	gen, err := aras.NewGenerator(house, aras.GeneratorConfig{Days: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHome(HomeConfig{ID: "A", House: house, Params: hvac.DefaultParams(), Pricing: hvac.DefaultPricing()})
	if err != nil {
		t.Fatal(err)
	}
	src := NewGeneratorSource("A", gen)
	var blk DayBlock
	if err := src.NextBlock(&blk); err != nil {
		t.Fatal(err)
	}
	if _, err := h.IngestDay(&blk); err != nil {
		t.Fatal(err)
	}
	// Replaying the same day is out of order for the stepper.
	if _, err := h.IngestDay(&blk); err == nil {
		t.Error("replayed day block accepted")
	}
	// A mid-day per-slot cursor refuses to coarsen into blocks.
	var s Slot
	if err := src.Next(&s); err != nil {
		t.Fatal(err)
	}
	if err := src.NextBlock(&blk); err == nil {
		t.Error("mid-day NextBlock accepted")
	}
	if _, err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.IngestDay(&blk); err == nil {
		t.Error("IngestDay after Close accepted")
	}
	if _, err := h.Close(); err == nil {
		t.Error("double Close accepted")
	}
}

// TestIngestDayRejectsBadIDs: a day frame passes the codec's checksum and
// shape checks whatever int16 IDs its occupancy columns hold, and the day
// kernels index per-zone and per-activity tables by them. IngestDay must
// reject an ID outside the home's tables with ErrBadBlockID before any
// kernel runs, and leave the home where it was.
func TestIngestDayRejectsBadIDs(t *testing.T) {
	tr, model := testWorld(t, "A", 2, 1)
	h, err := NewHome(HomeConfig{ID: "A", House: tr.House, Params: hvac.DefaultParams(), Pricing: hvac.DefaultPricing(), Defender: model})
	if err != nil {
		t.Fatal(err)
	}
	var blk DayBlock
	if err := NewTraceSource("A", tr).NextBlock(&blk); err != nil {
		t.Fatal(err)
	}
	frame, err := AppendBlockFrame(nil, &blk, 0)
	if err != nil {
		t.Fatal(err)
	}
	const o, slot = 1, 700
	for _, tc := range []struct {
		label  string
		poison func(b *DayBlock)
	}{
		{"RepAct 99", func(b *DayBlock) { b.RepAct[o][slot] = 99 }},
		{"RepAct -1", func(b *DayBlock) { b.RepAct[o][slot] = -1 }},
		{"RepZone 99", func(b *DayBlock) { b.RepZone[o][slot] = 99 }},
		{"TrueZone 99", func(b *DayBlock) { b.TrueZone[o][slot] = 99 }},
		{"TrueAct 27", func(b *DayBlock) { b.TrueAct[o][slot] = home.NumActivities }},
		{"RepZone -1", func(b *DayBlock) { b.RepZone[o][slot] = -1 }},
	} {
		// The poisoned block travels as a frame, as it would over the bus.
		var bad DayBlock
		if _, err := DecodeBlockFrame(&bad, frame); err != nil {
			t.Fatal(err)
		}
		tc.poison(&bad)
		poisoned, err := AppendBlockFrame(nil, &bad, 0)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.label, err)
		}
		if _, err := DecodeBlockFrame(&bad, poisoned); err != nil {
			t.Fatalf("%s: the codec rejects the frame (%v); the home never sees it", tc.label, err)
		}
		if _, err := h.IngestDay(&bad); !errors.Is(err, ErrBadBlockID) {
			t.Fatalf("%s: IngestDay err = %v, want ErrBadBlockID", tc.label, err)
		}
		if h.sim.Day() != 0 || h.sim.SlotOfDay() != 0 || h.res.Days != 0 || h.res.Verdicts != 0 {
			t.Fatalf("%s: rejected block moved the home to (%d,%d), %+v", tc.label, h.sim.Day(), h.sim.SlotOfDay(), h.res)
		}
	}
	var good DayBlock
	if _, err := DecodeBlockFrame(&good, frame); err != nil {
		t.Fatal(err)
	}
	if _, err := h.IngestDay(&good); err != nil {
		t.Fatalf("intact day after the rejected ones: %v", err)
	}
}

// TestIngestDayRejectsBadWeather: the codec carries any float64 in the
// weather columns, and one NaN, infinite or unphysical value at one slot
// made the home's bill NaN or Inf (and every later checkpoint unencodable).
// IngestDay must reject such a frame with ErrBadBlockWeather before any
// kernel runs and leave the home at day 0, and must accept the bounds
// themselves.
func TestIngestDayRejectsBadWeather(t *testing.T) {
	tr, model := testWorld(t, "A", 2, 1)
	h, err := NewHome(HomeConfig{ID: "A", House: tr.House, Params: hvac.DefaultParams(), Pricing: hvac.DefaultPricing(), Defender: model})
	if err != nil {
		t.Fatal(err)
	}
	var blk DayBlock
	if err := NewTraceSource("A", tr).NextBlock(&blk); err != nil {
		t.Fatal(err)
	}
	frame, err := AppendBlockFrame(nil, &blk, 0)
	if err != nil {
		t.Fatal(err)
	}
	const slot = 700
	for _, tc := range []struct {
		label  string
		poison func(b *DayBlock)
	}{
		{"TempF NaN", func(b *DayBlock) { b.TempF[slot] = math.NaN() }},
		{"TempF +Inf", func(b *DayBlock) { b.TempF[slot] = math.Inf(1) }},
		{"TempF -Inf", func(b *DayBlock) { b.TempF[slot] = math.Inf(-1) }},
		{"TempF 1e308", func(b *DayBlock) { b.TempF[slot] = 1e308 }},
		{"TempF below absolute zero", func(b *DayBlock) { b.TempF[0] = -460 }},
		{"TempF 1000.5", func(b *DayBlock) { b.TempF[aras.SlotsPerDay-1] = 1000.5 }},
		{"CO2 NaN", func(b *DayBlock) { b.CO2PPM[slot] = math.NaN() }},
		{"CO2 +Inf", func(b *DayBlock) { b.CO2PPM[slot] = math.Inf(1) }},
		{"CO2 -Inf", func(b *DayBlock) { b.CO2PPM[slot] = math.Inf(-1) }},
		{"CO2 negative", func(b *DayBlock) { b.CO2PPM[0] = -1 }},
		{"CO2 above 1e6", func(b *DayBlock) { b.CO2PPM[aras.SlotsPerDay-1] = 1.5e6 }},
	} {
		// The poisoned block travels as a frame, as it would over the bus.
		var bad DayBlock
		if _, err := DecodeBlockFrame(&bad, frame); err != nil {
			t.Fatal(err)
		}
		tc.poison(&bad)
		poisoned, err := AppendBlockFrame(nil, &bad, 0)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.label, err)
		}
		if _, err := DecodeBlockFrame(&bad, poisoned); err != nil {
			t.Fatalf("%s: the codec rejects the frame (%v); the home never sees it", tc.label, err)
		}
		if _, err := h.IngestDay(&bad); !errors.Is(err, ErrBadBlockWeather) {
			t.Fatalf("%s: IngestDay err = %v, want ErrBadBlockWeather", tc.label, err)
		}
		if h.sim.Day() != 0 || h.sim.SlotOfDay() != 0 || h.res.Days != 0 || h.res.Verdicts != 0 {
			t.Fatalf("%s: rejected block moved the home to (%d,%d), %+v", tc.label, h.sim.Day(), h.sim.SlotOfDay(), h.res)
		}
	}
	var edge DayBlock
	if _, err := DecodeBlockFrame(&edge, frame); err != nil {
		t.Fatal(err)
	}
	edge.TempF[0], edge.TempF[1] = -459.67, 1000
	edge.CO2PPM[0], edge.CO2PPM[1] = 0, 1e6
	if _, err := h.IngestDay(&edge); err != nil {
		t.Fatalf("day at the weather bounds: %v", err)
	}
	res, err := h.Close()
	if err != nil {
		t.Fatal(err)
	}
	if cost := res.Sim.TotalCostUSD; math.IsNaN(cost) || math.IsInf(cost, 0) || cost <= 0 {
		t.Fatalf("bill at the weather bounds = %v", cost)
	}
}
