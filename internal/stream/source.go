package stream

import (
	"fmt"
	"io"

	"github.com/acyd-lab/shatter/internal/aras"
)

// Source produces a home's stream one day block at a time, in day order.
// NextBlock fills dst (reusing its backing storage where possible) and
// returns io.EOF at end of stream. Sources are not safe for concurrent use.
type Source interface {
	NextBlock(dst *DayBlock) error
}

// GeneratorSource adapts the incremental aras.Generator to the event model:
// days are planned lazily one at a time and emitted as day blocks, so a home
// streams forever (unbounded generator) without ever materializing a
// multi-day trace. The reported view mirrors the truth — attacks enter the
// stream through an Injector, not the source. Next serves the same stream
// slot by slot, the per-slot reference view the block kernels are locked
// against.
type GeneratorSource struct {
	id   string
	gen  *aras.Generator
	day  aras.Day
	wth  aras.Weather
	d    int // index of the buffered day
	slot int // next slot to emit; SlotsPerDay forces a day fetch
}

// NewGeneratorSource streams the generator's days tagged with the home ID.
func NewGeneratorSource(id string, g *aras.Generator) *GeneratorSource {
	return &GeneratorSource{id: id, gen: g, slot: aras.SlotsPerDay, d: -1}
}

// Next emits the next slot of the per-slot reference view.
func (s *GeneratorSource) Next(dst *Slot) error {
	if s.slot == aras.SlotsPerDay {
		d := s.gen.DayIndex()
		day, wth, err := s.gen.NextDay()
		if err != nil {
			return err
		}
		s.day, s.wth, s.d, s.slot = day, wth, d, 0
	}
	fillSlot(dst, s.id, s.d, s.slot, s.day, s.wth)
	s.slot++
	return nil
}

// NextBlock implements Source: the generator plans the next day directly
// into the block's ground-truth columns (no intermediate aras.Day
// allocation) and mirrors them into the reported view. Interleaving with a
// partially consumed per-slot day is an error — blocks only coarsen whole
// days.
func (s *GeneratorSource) NextBlock(dst *DayBlock) error {
	if s.slot != aras.SlotsPerDay {
		return fmt.Errorf("stream: source for %s mid-day (slot %d); cannot emit a day block", s.id, s.slot)
	}
	d := s.gen.DayIndex()
	dst.ensure(len(s.gen.House().Occupants), len(s.gen.House().Appliances))
	day := aras.Day{Zone: dst.TrueZone, Act: dst.TrueAct, Appliance: dst.TrueAppliance}
	wth := aras.Weather{TempF: dst.TempF, CO2PPM: dst.CO2PPM}
	if err := s.gen.NextDayInto(&day, &wth); err != nil {
		return err
	}
	dst.Home = s.id
	dst.Day = d
	dst.mirrorTruth()
	return nil
}

// SeekDay implements DaySeeker: it fast-forwards the stream to the start
// of the given day with aras.Generator.SkipDay, which leaves the
// generator's RNG streams exactly where emitting the skipped days would —
// the resumed stream is byte-identical to the uninterrupted one. Seeking
// backward or into a partially emitted day is an error.
func (s *GeneratorSource) SeekDay(day int) error {
	cur := s.d
	if s.slot == aras.SlotsPerDay {
		cur = s.gen.DayIndex()
	}
	if day == cur && s.slot == 0 {
		return nil // already positioned on the buffered day's first slot
	}
	if day < cur || (day == cur && s.slot != aras.SlotsPerDay) {
		return fmt.Errorf("stream: source for %s cannot seek back to day %d (at day %d slot %d)", s.id, day, cur, s.slot%aras.SlotsPerDay)
	}
	for s.gen.DayIndex() < day {
		if err := s.gen.SkipDay(); err != nil {
			return fmt.Errorf("stream: source for %s seeking day %d: %w", s.id, day, err)
		}
	}
	s.slot, s.d = aras.SlotsPerDay, -1
	return nil
}

// TraceSource replays a materialized trace as day blocks — the bridge that
// lets recorded (or batch-generated) data drive the streaming runtime, and
// the replay path the equivalence tests pin against the batch pipeline.
// Next serves the same stream as the per-slot reference view.
type TraceSource struct {
	id    string
	trace *aras.Trace
	d     int
	slot  int
}

// NewTraceSource streams the trace's days tagged with the home ID.
func NewTraceSource(id string, tr *aras.Trace) *TraceSource {
	return &TraceSource{id: id, trace: tr}
}

// Next emits the next slot of the per-slot reference view.
func (s *TraceSource) Next(dst *Slot) error {
	if s.d >= s.trace.NumDays() {
		return io.EOF
	}
	fillSlot(dst, s.id, s.d, s.slot, s.trace.Days[s.d], s.trace.Weather[s.d])
	s.slot++
	if s.slot == aras.SlotsPerDay {
		s.slot = 0
		s.d++
	}
	return nil
}

// NextBlock implements Source: the trace day is copied column-wise into
// the block (a copy, not an alias — injectors rewrite blocks in place and
// must not corrupt the source trace). Mid-day cursors refuse to coarsen.
func (s *TraceSource) NextBlock(dst *DayBlock) error {
	if s.slot != 0 {
		return fmt.Errorf("stream: source for %s mid-day (slot %d); cannot emit a day block", s.id, s.slot)
	}
	if s.d >= s.trace.NumDays() {
		return io.EOF
	}
	day, wth := s.trace.Days[s.d], s.trace.Weather[s.d]
	dst.ensure(len(day.Zone), len(day.Appliance))
	copy(dst.TempF, wth.TempF)
	copy(dst.CO2PPM, wth.CO2PPM)
	for o := range day.Zone {
		copy(dst.TrueZone[o], day.Zone[o])
		copy(dst.TrueAct[o], day.Act[o])
	}
	for a := range day.Appliance {
		copy(dst.TrueAppliance[a], day.Appliance[a])
	}
	dst.Home = s.id
	dst.Day = s.d
	dst.mirrorTruth()
	s.d++
	return nil
}

// SeekDay implements DaySeeker: trace cursors jump in O(1). Seeking past
// the trace positions the source at end-of-stream.
func (s *TraceSource) SeekDay(day int) error {
	if day < 0 {
		return fmt.Errorf("stream: source for %s cannot seek to day %d", s.id, day)
	}
	s.d, s.slot = day, 0
	return nil
}

// fillSlot populates one frame from a day of ground truth.
func fillSlot(dst *Slot, id string, d, slot int, day aras.Day, wth aras.Weather) {
	dst.ensure(len(day.Zone), len(day.Appliance))
	dst.Home = id
	dst.Day = d
	dst.Index = slot
	dst.OutdoorTempF = wth.TempF[slot]
	dst.OutdoorCO2PPM = wth.CO2PPM[slot]
	for o := range day.Zone {
		dst.True[o] = OccupantReading{Zone: day.Zone[o][slot], Activity: day.Act[o][slot]}
	}
	for a := range day.Appliance {
		dst.TrueAppliance[a] = aras.Bit(day.Appliance[a], slot)
	}
	dst.mirrorTruth()
}
