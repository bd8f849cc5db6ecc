package stream

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/acyd-lab/shatter/internal/adm"
	"github.com/acyd-lab/shatter/internal/aras"
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
	// OnVerdict, when non-nil, observes every detector verdict the moment
	// its episode closes — the hook a fleet service publishes verdict events
	// from. Called synchronously from Ingest/Close.
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
// through the incremental HVAC simulator. Not safe for concurrent use.
type Home struct {
	cfg HomeConfig
	sim *hvac.Sim
	det *adm.Detector
	nat *adm.Episodizer // truth-stream segmentation for injection labels

	in       hvac.StepInput
	believed []hvac.OccupantObs
	actual   []hvac.OccupantObs

	// Per-day ledger: reported verdicts and natural (occupant, zone,
	// arrival, duration) tuples, resolved once the day's episodes have all
	// closed. Natural keys are compared per occupant, matching the batch
	// DayReportedEpisodes semantics (each occupant's reported stream is
	// checked against that occupant's own truth). The ledger is a day-sorted
	// slice of per-day entries whose storage is recycled as days resolve, so
	// a warm stream runs it allocation-free.
	labeling bool
	led      []dayLedger
	ledSpare []dayLedger
	closed   bool
	res      HomeResult

	// IngestDay scratch: per-occupant verdict columns awaiting the
	// order-preserving merge, merge cursors, natural-episode buffer, and the
	// HVAC day input aliasing the in-flight block's columns.
	vcols [][]adm.Verdict
	vcur  []int
	ncol  []aras.Episode
	dayIn hvac.DayInput
}

// dayLedger is one day's unresolved labelling state: verdicts in close
// order, natural keys sorted lexicographically for binary search.
type dayLedger struct {
	day      int
	verdicts []adm.Verdict
	natural  [][4]int
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
	h := &Home{
		cfg:      cfg,
		sim:      sim,
		believed: make([]hvac.OccupantObs, len(cfg.House.Occupants)),
		actual:   make([]hvac.OccupantObs, len(cfg.House.Occupants)),
		res:      HomeResult{ID: cfg.ID},
	}
	if cfg.Defender != nil {
		h.det = adm.NewDetector(cfg.Defender)
		if cfg.Injector != nil {
			h.nat = adm.NewEpisodizer(len(cfg.House.Occupants))
			h.labeling = true
		}
	}
	return h, nil
}

// AddOnVerdict chains a verdict observer after the home's own
// cfg.OnVerdict — the hook a fleet service uses to attach its metrics to a
// home another layer assembled, without displacing that layer's observer.
// It must be called before the first Ingest; the callback runs
// synchronously from Ingest/Close like cfg.OnVerdict.
func (h *Home) AddOnVerdict(fn func(adm.Verdict)) error {
	if h.res.Slots != 0 || h.closed {
		return errors.New("stream: AddOnVerdict after streaming began")
	}
	if prev := h.cfg.OnVerdict; prev != nil {
		h.cfg.OnVerdict = func(v adm.Verdict) { prev(v); fn(v) }
		return nil
	}
	h.cfg.OnVerdict = fn
	return nil
}

// Ingest advances the pipeline by one slot — the per-slot reference
// IngestDay is locked against — and returns the controller's action event
// for the slot (its Demands slice is controller scratch, valid until the
// next Ingest). Slots must arrive in stream order; the runtime cross-checks
// the slot's (day, index) against the stepper's position so ordering bugs
// surface as errors, not silent divergence.
func (h *Home) Ingest(s *Slot) (Action, error) {
	if h.closed {
		return Action{}, errors.New("stream: Ingest after Close")
	}
	if s.Day != h.sim.Day() || s.Index != h.sim.SlotOfDay() {
		return Action{}, fmt.Errorf("stream: home %s: frame (%d,%d) arrived at stepper position (%d,%d)",
			h.cfg.ID, s.Day, s.Index, h.sim.Day(), h.sim.SlotOfDay())
	}
	occ, appl := len(h.actual), len(h.cfg.House.Appliances)
	if len(s.True) != occ || len(s.TrueAppliance) != appl ||
		len(s.Reported) != occ || len(s.ReportedAppliance) != appl {
		return Action{}, fmt.Errorf("stream: home %s: frame sized %dx%d (reported %dx%d), want %dx%d",
			h.cfg.ID, len(s.True), len(s.TrueAppliance), len(s.Reported), len(s.ReportedAppliance), occ, appl)
	}
	if h.cfg.Injector != nil {
		h.cfg.Injector.Rewrite(s)
	}
	if h.det != nil {
		for o := range s.Reported {
			v, ok, err := h.det.Observe(s.Day, s.Index, o, s.Reported[o].Zone, s.Reported[o].Activity)
			if err != nil {
				return Action{}, err
			}
			if ok {
				h.recordVerdict(v)
			}
		}
		if h.nat != nil {
			for o := range s.True {
				e, ok, err := h.nat.Observe(s.Day, s.Index, o, s.True[o].Zone, s.True[o].Activity)
				if err != nil {
					return Action{}, err
				}
				if ok {
					h.recordNatural(e)
				}
			}
			// Entering day d closes every day d-1 episode on both streams,
			// so earlier days are ready to label.
			if s.Index == 0 && s.Day > 0 {
				h.resolveDaysBelow(s.Day)
			}
		}
	}
	for o := range s.Reported {
		h.believed[o] = hvac.OccupantObs{Zone: s.Reported[o].Zone, Activity: s.Reported[o].Activity}
		h.actual[o] = hvac.OccupantObs{Zone: s.True[o].Zone, Activity: s.True[o].Activity}
	}
	h.in = hvac.StepInput{
		OutdoorTempF:      s.OutdoorTempF,
		OutdoorCO2PPM:     s.OutdoorCO2PPM,
		Believed:          h.believed,
		BelievedAppliance: s.ReportedAppliance,
		ActualOccupants:   h.actual,
		ActualAppliance:   s.TrueAppliance,
	}
	rep := h.sim.Step(h.in)
	if s.Index == 0 {
		h.res.Days++
	}
	h.res.Slots++
	h.res.SensorEvents += int64(s.SensorEvents())
	h.res.ActionEvents += int64(len(rep.Demands))
	return Action{
		Home:    h.cfg.ID,
		Day:     rep.Day,
		Index:   rep.Slot,
		Demands: rep.Demands,
		KWh:     rep.KWh,
		CostUSD: rep.CostUSD,
	}, nil
}

// DayStats is the per-block event accounting IngestDay reports back to its
// driver — what the per-slot reference would have tallied from its own
// slots, so the fleet keeps identical metrics without reaching into the
// home's internals.
type DayStats struct {
	SensorEvents int64
	ActionEvents int64
}

// IngestDay advances the pipeline by one whole day-block — the hot-path
// equivalent of aras.SlotsPerDay Ingest calls, bit-identical in every
// result and in the OnVerdict callback order, without per-slot frame
// materialization. The block's reported and true-appliance columns are
// rewritten in place when an injector is attached (as Ingest rewrites its
// frame); detection runs column-wise per occupant with the closed episodes
// re-merged into the per-slot (close-slot, occupant) verdict order; the
// plant advances via the segment-amortized hvac day stepper.
func (h *Home) IngestDay(b *DayBlock) (DayStats, error) {
	if h.closed {
		return DayStats{}, errors.New("stream: IngestDay after Close")
	}
	if b.Day != h.sim.Day() || h.sim.SlotOfDay() != 0 {
		return DayStats{}, fmt.Errorf("stream: home %s: day block %d arrived at stepper position (%d,%d)",
			h.cfg.ID, b.Day, h.sim.Day(), h.sim.SlotOfDay())
	}
	occ, appl := len(h.actual), len(h.cfg.House.Appliances)
	if err := b.shapeErr(occ, appl); err != nil {
		return DayStats{}, fmt.Errorf("stream: home %s: %w", h.cfg.ID, err)
	}
	if h.cfg.Injector != nil {
		h.cfg.Injector.RewriteBlock(b)
	}
	if h.det != nil {
		if h.vcols == nil {
			h.vcols = make([][]adm.Verdict, occ)
			h.vcur = make([]int, occ)
		}
		for o := 0; o < occ; o++ {
			col, err := h.det.ObserveDay(b.Day, o, b.RepZone[o], b.RepAct[o], h.vcols[o][:0])
			if err != nil {
				return DayStats{}, err
			}
			h.vcols[o] = col
			h.vcur[o] = 0
		}
		// Merge the per-occupant close streams back into per-slot emission
		// order: ascending close slot (day-boundary closes of the previous
		// day surface at slot 0), ties by occupant. Each column is already
		// close-ordered, so this is a k-way merge over tiny k.
		for {
			best, bestPos := -1, 0
			for o := 0; o < occ; o++ {
				if h.vcur[o] >= len(h.vcols[o]) {
					continue
				}
				v := &h.vcols[o][h.vcur[o]]
				pos := 0
				if v.Episode.Day == b.Day {
					pos = v.Episode.ArrivalSlot + v.Episode.Duration
				}
				if best == -1 || pos < bestPos {
					best, bestPos = o, pos
				}
			}
			if best == -1 {
				break
			}
			h.recordVerdict(h.vcols[best][h.vcur[best]])
			h.vcur[best]++
		}
		if h.nat != nil {
			for o := 0; o < occ; o++ {
				col, err := h.nat.ObserveDay(b.Day, o, b.TrueZone[o], b.TrueAct[o], h.ncol[:0])
				h.ncol = col[:0]
				if err != nil {
					return DayStats{}, err
				}
				for _, e := range col {
					h.recordNatural(e)
				}
			}
			if b.Day > 0 {
				h.resolveDaysBelow(b.Day)
			}
		}
	}
	h.dayIn = b.dayInput()
	if err := h.sim.StepDay(&h.dayIn); err != nil {
		return DayStats{}, err
	}
	st := DayStats{
		SensorEvents: int64(aras.SlotsPerDay) * int64(occ+appl),
		ActionEvents: int64(aras.SlotsPerDay) * int64(len(h.cfg.House.Zones)),
	}
	h.res.Days++
	h.res.Slots += int64(aras.SlotsPerDay)
	h.res.SensorEvents += st.SensorEvents
	h.res.ActionEvents += st.ActionEvents
	return st, nil
}

// Close seals open episodes, resolves the detection ledger, and returns the
// final accounting.
func (h *Home) Close() (HomeResult, error) {
	if h.closed {
		return HomeResult{}, errors.New("stream: double Close")
	}
	h.closed = true
	if h.det != nil {
		for _, v := range h.det.Flush() {
			h.recordVerdict(v)
		}
		if h.nat != nil {
			for _, e := range h.nat.Flush() {
				h.recordNatural(e)
			}
			h.resolveDaysBelow(math.MaxInt) // all days
		}
	}
	h.res.Sim = h.sim.Result()
	return h.res, nil
}

// ledgerFor returns the labelling entry for a day, creating it (from
// recycled storage when available) in day-sorted position. Streams touch
// days in nondecreasing order, so the entry is almost always last already.
func (h *Home) ledgerFor(day int) *dayLedger {
	i := len(h.led)
	for i > 0 && h.led[i-1].day > day {
		i--
	}
	if i > 0 && h.led[i-1].day == day {
		return &h.led[i-1]
	}
	var entry dayLedger
	if n := len(h.ledSpare); n > 0 {
		entry = h.ledSpare[n-1]
		h.ledSpare = h.ledSpare[:n-1]
	}
	entry.day = day
	entry.verdicts = entry.verdicts[:0]
	entry.natural = entry.natural[:0]
	h.led = append(h.led, dayLedger{})
	copy(h.led[i+1:], h.led[i:])
	h.led[i] = entry
	return &h.led[i]
}

// recordVerdict counts a closed reported episode and, under attack,
// ledgers it for injection labelling.
func (h *Home) recordVerdict(v adm.Verdict) {
	h.res.Verdicts++
	if v.Anomalous {
		h.res.Anomalies++
	}
	if h.cfg.OnVerdict != nil {
		h.cfg.OnVerdict(v)
	}
	if h.labeling {
		l := h.ledgerFor(v.Episode.Day)
		l.verdicts = append(l.verdicts, v)
	}
}

// recordNatural ledgers a truth-stream episode for injection labelling,
// keeping the day's key slice sorted for binary search at resolution.
func (h *Home) recordNatural(e aras.Episode) {
	l := h.ledgerFor(e.Day)
	key := [4]int{e.Occupant, int(e.Zone), e.ArrivalSlot, e.Duration}
	i := sort.Search(len(l.natural), func(i int) bool { return !keyLess(l.natural[i], key) })
	l.natural = append(l.natural, [4]int{})
	copy(l.natural[i+1:], l.natural[i:])
	l.natural[i] = key
}

func keyLess(a, b [4]int) bool {
	for x := 0; x < 4; x++ {
		if a[x] != b[x] {
			return a[x] < b[x]
		}
	}
	return false
}

// resolveDaysBelow labels every ledgered day < bound: a reported episode
// absent from the day's natural keys is an injection (the batch
// DayReportedEpisodes semantics), and flagged injections mark the day
// detected. Resolved entries' storage is recycled, so a steady-state stream
// resolves each day without allocating.
func (h *Home) resolveDaysBelow(bound int) {
	n := 0
	for n < len(h.led) && h.led[n].day < bound {
		n++
	}
	if n == 0 {
		return
	}
	for i := 0; i < n; i++ {
		l := &h.led[i]
		detected := false
		for _, v := range l.verdicts {
			key := [4]int{v.Episode.Occupant, int(v.Episode.Zone), v.Episode.ArrivalSlot, v.Episode.Duration}
			j := sort.Search(len(l.natural), func(j int) bool { return !keyLess(l.natural[j], key) })
			if j < len(l.natural) && l.natural[j] == key {
				continue // occurs in that occupant's truth: ordinary FP surface, not an injection
			}
			h.res.Injected++
			if v.Anomalous {
				h.res.Flagged++
				detected = true
			}
		}
		if detected {
			h.res.DetectedDays++
		}
		h.ledSpare = append(h.ledSpare, *l)
		*l = dayLedger{}
	}
	h.led = h.led[:copy(h.led, h.led[n:])]
}
