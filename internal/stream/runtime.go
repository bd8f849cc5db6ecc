package stream

import (
	"errors"
	"fmt"

	"github.com/acyd-lab/shatter/internal/adm"
	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/attack"
	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/hvac"
)

// HomeConfig wires one home's streaming pipeline.
type HomeConfig struct {
	// ID names the home on the fleet bus.
	ID string
	// House is the world the stream describes.
	House *home.House
	// Controller plans airflow from the reported view. Nil selects the
	// paper's SHATTER controller under Params. Controllers hold per-plan
	// scratch, so every home needs its own instance.
	Controller hvac.Controller
	Params     hvac.Params
	Pricing    hvac.Pricing
	// Defender, when non-nil, runs online anomaly detection over the
	// reported occupancy stream.
	Defender *adm.Model
	// Injector, when non-nil, applies an attack plan to the stream in
	// flight.
	Injector *Injector
	// OnVerdict, when non-nil, observes every detector verdict, called
	// synchronously from IngestDay with the block that holds its episode, in
	// close order (see scoreDay). A fleet counts verdicts from DayStats.
	OnVerdict func(adm.Verdict)
}

// HomeResult aggregates one home's streamed run.
type HomeResult struct {
	ID string
	// Days counts days with at least one ingested slot; Slots the slots.
	Days  int
	Slots int64
	// SensorEvents, ActionEvents, and Verdicts count the typed events the
	// run produced (occupancy+appliance readings, per-zone controller
	// demands, and closed-episode judgements respectively).
	SensorEvents int64
	ActionEvents int64
	Verdicts     int64
	// Anomalies counts verdicts flagged anomalous (attack detections plus
	// the defender's ordinary false-positive surface).
	Anomalies int64
	// Injected counts reported episodes that do not occur in the truth;
	// Flagged those the defender caught; DetectedDays days with >= 1 catch.
	Injected     int64
	Flagged      int64
	DetectedDays int
	// Sim is the plant/cost accounting, bit-identical to batch
	// hvac.Simulate over the same stream.
	Sim hvac.Result
}

// Home runs one home's incremental pipeline: day blocks are rewritten by the
// optional injector, scored by the optional online detector, and stepped
// through the incremental HVAC simulator. Each day resolves inside its
// IngestDay: every episode closes with its block, and under attack every
// verdict is labelled injected or not against that day's truth, so no
// detection state crosses a day boundary. Not safe for concurrent use.
type Home struct {
	cfg HomeConfig
	sim *hvac.Sim
	det *adm.Detector
	// labeling is set when a defended home runs under attack: reported
	// episodes absent from their occupant's truth count as injections.
	labeling bool
	closed   bool
	res      HomeResult

	// IngestDay scratch: per-occupant verdict columns awaiting the
	// order-preserving merge, merge cursors, one occupant's truth episodes,
	// and the HVAC day input aliasing the in-flight block's columns.
	vcols [][]adm.Verdict
	vcur  []int
	truth []aras.Episode
	dayIn hvac.DayInput
}

// NewHome builds the runtime for one home.
func NewHome(cfg HomeConfig) (*Home, error) {
	if cfg.House == nil {
		return nil, errors.New("stream: HomeConfig.House is nil")
	}
	if cfg.Controller == nil {
		cfg.Controller = &hvac.SHATTERController{Params: cfg.Params}
	}
	sim, err := hvac.NewSim(cfg.House, cfg.Controller, cfg.Params, cfg.Pricing)
	if err != nil {
		return nil, err
	}
	h := &Home{cfg: cfg, sim: sim, res: HomeResult{ID: cfg.ID}}
	if cfg.Defender != nil {
		h.det = adm.NewDetector(cfg.Defender)
		h.labeling = cfg.Injector != nil
	}
	return h, nil
}

// DayStats is the per-block event accounting IngestDay reports back to its
// driver, so the fleet keeps its metrics without reaching into the home's
// internals.
type DayStats struct {
	SensorEvents int64
	ActionEvents int64
	// Verdicts and Anomalies are the day's share of HomeResult's counts.
	Verdicts  int64
	Anomalies int64
}

// IngestDay advances the pipeline by one whole day block. The block's
// reported and true-appliance columns are rewritten in place when an
// injector is attached; detection classifies every episode of the day and
// emits the verdicts in close order (see scoreDay); the plant advances via
// the segment-amortized hvac day stepper. A block with IDs outside the
// home's zone or activity tables is rejected with ErrBadBlockID, and one
// with non-finite or unphysical weather with ErrBadBlockWeather, before any
// of that runs, leaving the home where it was.
func (h *Home) IngestDay(b *DayBlock) (DayStats, error) {
	if h.closed {
		return DayStats{}, errors.New("stream: IngestDay after Close")
	}
	if b.Day != h.sim.Day() || h.sim.SlotOfDay() != 0 {
		return DayStats{}, fmt.Errorf("stream: home %s: day block %d arrived at stepper position (%d,%d)",
			h.cfg.ID, b.Day, h.sim.Day(), h.sim.SlotOfDay())
	}
	house := h.cfg.House
	occ, appl := len(house.Occupants), len(house.Appliances)
	if err := b.shapeErr(occ, appl); err != nil {
		return DayStats{}, fmt.Errorf("stream: home %s: %w", h.cfg.ID, err)
	}
	if err := b.idErr(len(house.Zones)); err != nil {
		return DayStats{}, fmt.Errorf("stream: home %s: %w", h.cfg.ID, err)
	}
	if err := b.weatherErr(); err != nil {
		return DayStats{}, fmt.Errorf("stream: home %s: %w", h.cfg.ID, err)
	}
	if h.cfg.Injector != nil {
		h.cfg.Injector.RewriteBlock(b)
	}
	verdicts, anomalies := h.res.Verdicts, h.res.Anomalies
	if err := h.scoreDay(b); err != nil {
		return DayStats{}, err
	}
	h.dayIn = b.dayInput()
	if err := h.sim.StepDay(&h.dayIn); err != nil {
		return DayStats{}, err
	}
	st := DayStats{
		SensorEvents: int64(aras.SlotsPerDay) * int64(occ+appl),
		ActionEvents: int64(aras.SlotsPerDay) * int64(len(house.Zones)),
		Verdicts:     h.res.Verdicts - verdicts,
		Anomalies:    h.res.Anomalies - anomalies,
	}
	h.res.Days++
	h.res.Slots += int64(aras.SlotsPerDay)
	h.res.SensorEvents += st.SensorEvents
	h.res.ActionEvents += st.ActionEvents
	return st, nil
}

// scoreDay runs the detector over the block's reported columns, occupant by
// occupant, and emits the day's verdicts in close order: ascending close
// slot (ArrivalSlot+Duration), ties by ascending occupant. Each occupant's
// column is already close-ordered, so this is a k-way merge over tiny k.
// Under attack it then labels the day's injections.
func (h *Home) scoreDay(b *DayBlock) error {
	if h.det == nil {
		return nil
	}
	occ := len(b.RepZone)
	if h.vcols == nil {
		h.vcols = make([][]adm.Verdict, occ)
		h.vcur = make([]int, occ)
	}
	for o := 0; o < occ; o++ {
		col, err := h.det.ObserveDay(b.Day, o, b.RepZone[o], b.RepAct[o], h.vcols[o][:0])
		if err != nil {
			return err
		}
		h.vcols[o] = col
		h.vcur[o] = 0
	}
	for {
		best, bestEnd := -1, 0
		for o := 0; o < occ; o++ {
			if h.vcur[o] == len(h.vcols[o]) {
				continue
			}
			e := &h.vcols[o][h.vcur[o]].Episode
			if end := e.ArrivalSlot + e.Duration; best == -1 || end < bestEnd {
				best, bestEnd = o, end
			}
		}
		if best == -1 {
			break
		}
		v := h.vcols[best][h.vcur[best]]
		h.vcur[best]++
		h.res.Verdicts++
		if v.Anomalous {
			h.res.Anomalies++
		}
		if h.cfg.OnVerdict != nil {
			h.cfg.OnVerdict(v)
		}
	}
	if h.labeling {
		h.labelDay(b)
	}
	return nil
}

// labelDay counts the injected episodes among the day's verdicts
// (attack.Injected against each occupant's own truth episodes for the day),
// the flagged ones among them, and the day as detected when any was
// flagged.
func (h *Home) labelDay(b *DayBlock) {
	detected := false
	for o, col := range h.vcols {
		h.truth = aras.AppendDayEpisodes(h.truth[:0], b.Day, o, b.TrueZone[o], b.TrueAct[o])
		for _, v := range col {
			if !attack.Injected(v.Episode, h.truth) {
				continue
			}
			h.res.Injected++
			if v.Anomalous {
				h.res.Flagged++
				detected = true
			}
		}
	}
	if detected {
		h.res.DetectedDays++
	}
}

// Close returns the final accounting. Every day's episodes were scored by
// its IngestDay, so there is nothing left to flush.
func (h *Home) Close() (HomeResult, error) {
	if h.closed {
		return HomeResult{}, errors.New("stream: double Close")
	}
	h.closed = true
	h.res.Sim = h.sim.Result()
	return h.res, nil
}
