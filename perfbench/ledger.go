package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"time"

	"github.com/acyd-lab/shatter/internal/adm"
	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/attack"
	"github.com/acyd-lab/shatter/internal/core"
	"github.com/acyd-lab/shatter/internal/fleetd"
	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/hvac"
	"github.com/acyd-lab/shatter/internal/mqtt"
	"github.com/acyd-lab/shatter/internal/scenario"
	"github.com/acyd-lab/shatter/internal/stream"
)

// entryReps is how often a traced ledger times a short untraced entry-point
// run; the attribution uses the median.
const entryReps = 5

// span accumulates the calls into one layer.
type span struct {
	calls  int
	busy   time.Duration
	allocs uint64
}

// ledger records the calls the traced replay makes into each layer's public
// functions: busy time and heap allocations per call.
type ledger struct {
	spans map[string]*span
}

func newLedger() *ledger { return &ledger{spans: make(map[string]*span)} }

// time runs fn as one call into the named layer. The allocation counters
// are read outside the timed interval; the replay is single-threaded, so
// the allocations between the reads are fn's.
func (l *ledger) time(name string, fn func() error) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	began := time.Now()
	err := fn()
	d := time.Since(began)
	runtime.ReadMemStats(&after)
	sp := l.spans[name]
	if sp == nil {
		sp = &span{}
		l.spans[name] = sp
	}
	sp.calls++
	sp.busy += d
	sp.allocs += after.Mallocs - before.Mallocs
	return err
}

// total is a layer's busy time over all calls.
func (l *ledger) total(name string) time.Duration {
	if sp := l.spans[name]; sp != nil {
		return sp.busy
	}
	return 0
}

// perCall is a layer's busy time per call.
func (l *ledger) perCall(name string) time.Duration {
	if sp := l.spans[name]; sp != nil && sp.calls > 0 {
		return sp.busy / time.Duration(sp.calls)
	}
	return 0
}

// allocsPerCall is a layer's heap allocations per call.
func (l *ledger) allocsPerCall(name string) float64 {
	if sp := l.spans[name]; sp != nil && sp.calls > 0 {
		return float64(sp.allocs) / float64(sp.calls)
	}
	return 0
}

// ledgerResult is one workload's traced output.
type ledgerResult struct {
	workload          string
	metrics           map[string]metric
	attempted, failed int
}

// traced builds every ledger and reports each per-layer metric from the
// named workload's ledgers when they exercise the layer, else from the
// first ledger (in workload order) that does. The analysis workload owns
// two ledgers: its sweep replay, and the attacked, defended stream of the
// analysed sample, which covers the per-day kernels.
func traced(out io.Writer, o options) (result, error) {
	an, err := traceAnalysis(out, o)
	if err != nil {
		return result{}, fmt.Errorf("analysis ledger: %w", err)
	}
	as, err := traceAttackedStream(out, an)
	if err != nil {
		return result{}, fmt.Errorf("attacked stream ledger: %w", err)
	}
	fw, err := traceFleetdWire(out, o)
	if err != nil {
		return result{}, fmt.Errorf("fleetd_wire ledger: %w", err)
	}
	ledgers := []ledgerResult{an.result, as, fw}
	sort.SliceStable(ledgers, func(i, j int) bool {
		return ledgers[i].workload == o.workload && ledgers[j].workload != o.workload
	})
	res := result{Metrics: make(map[string]metric)}
	for _, lr := range ledgers {
		res.Attempted += lr.attempted
		res.Failed += lr.failed
		for k, v := range lr.metrics {
			if _, ok := res.Metrics[k]; !ok {
				res.Metrics[k] = v
			}
		}
	}
	res.Correct = res.Failed == 0
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(out, "ledger: %-32s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Fprintf(out, "ledger: %d sample homes replayed, %d differ from the untraced run\n", res.Attempted, res.Failed)
	return res, nil
}

// medianTime runs fn reps times and returns the median of the durations it
// reports.
func medianTime(reps int, fn func() (time.Duration, error)) (time.Duration, error) {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), nil
}

// timeCall times one untraced call.
func timeCall(fn func() error) (time.Duration, error) {
	began := time.Now()
	err := fn()
	return time.Since(began), err
}

// attribution prints the sum of the layers against the untraced
// single-worker entry point, per call of the workload's unit, and returns
// the remainder: orchestration, scheduling and tracing overhead. The
// remainder is negative where the program overlaps layers that the replay
// runs one after another (pump, broker and checkpoint-sink goroutines).
func attribution(out io.Writer, name, unit string, entry time.Duration, parts []string, l *ledger, calls int, scale func(time.Duration) float64) float64 {
	var sum time.Duration
	detail := ""
	for _, p := range parts {
		sum += l.total(p)
		detail += fmt.Sprintf(" %s %.2f", p, scale(l.total(p)/time.Duration(calls)))
	}
	perEntry, perLayers := scale(entry/time.Duration(calls)), scale(sum/time.Duration(calls))
	fmt.Fprintf(out, "%s: layers %.2f %s (%s ) vs untraced entry point %.2f %s at one worker\n",
		name, perLayers, unit, detail, perEntry, unit)
	remainder := perEntry - perLayers
	fmt.Fprintf(out, "%s: remainder %.2f %s (%.1f%% of the entry point)\n", name, remainder, unit, 100*remainder/perEntry)
	return remainder
}

// controllerFor mirrors the suite's controller choice for a spec.
func controllerFor(params hvac.Params, sp scenario.Spec, house *home.House) hvac.Controller {
	if sp.Controller == scenario.ControllerASHRAE {
		return hvac.NewASHRAEController(params, house)
	}
	return &hvac.SHATTERController{Params: params}
}

// pricingFor mirrors the suite's tariff choice for a spec.
func pricingFor(s *core.Suite, sp scenario.Spec) hvac.Pricing {
	if sp.Pricing != nil {
		return *sp.Pricing
	}
	return s.Pricing
}

// --- analysis ledger ------------------------------------------------------

// analysisTrace is the analysis ledger plus what the attacked-stream
// ledger reuses: the sample, its analysed suites at one worker and at full
// width, the one-worker sweep, and each home's replayed defender model and
// triggered plan.
type analysisTrace struct {
	result ledgerResult
	specs  []scenario.Spec
	s1, sN *core.Suite
	points []core.SweepPoint
	homes  []replayedHome
}

type replayedHome struct {
	trace *aras.Trace
	model *adm.Model
	plan  *attack.Plan
}

// sweepEntry is the untraced analysis entry point: a fresh suite, its
// worlds generated, then ScenarioSweep timed.
func sweepEntry(seed uint64, width int, specs []scenario.Spec) (*core.Suite, []core.SweepPoint, time.Duration, error) {
	s, err := newSuite(seed, width)
	if err != nil {
		return nil, nil, 0, err
	}
	if _, err := s.FleetJobs(specs, core.StreamOptions{Defend: true}); err != nil {
		return nil, nil, 0, err
	}
	runtime.GC()
	var points []core.SweepPoint
	d, err := timeCall(func() (err error) {
		points, err = s.ScenarioSweep(specs)
		return err
	})
	return s, points, d, err
}

func traceAnalysis(out io.Writer, o options) (*analysisTrace, error) {
	w, _ := workloadByName("analysis")
	specs := w.specs(o)[:w.sample(o)]
	s1, points, entry1, err := sweepEntry(o.seed, 1, specs)
	if err != nil {
		return nil, err
	}
	trainings := s1.CacheStats().ADMTrainings
	sN, _, entryN, err := sweepEntry(o.seed, workers(), specs)
	if err != nil {
		return nil, err
	}
	at := &analysisTrace{specs: specs, s1: s1, sN: sN, points: points}
	l := newLedger()
	var windows, infeasible, triggered, bad int
	for i, sp := range specs {
		h, got, err := replayAnalysis(l, s1, sp)
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", sp.ID, err)
		}
		want := points[i]
		want.Elapsed = 0
		if got != want {
			bad++
			fmt.Fprintf(out, "analysis: replay of %s differs from the sweep:\n  replay %+v\n  sweep  %+v\n", sp.ID, got, want)
		}
		at.homes = append(at.homes, h)
		windows += analysedDays * len(h.trace.House.Occupants) * ((aras.SlotsPerDay + windowLen - 1) / windowLen)
		infeasible += got.InfeasibleWindows
		triggered += got.TriggeredSlots
	}
	n := len(specs)
	remainder := attribution(out, "analysis", "ms/home", entry1,
		[]string{"adm.train", "attack.plan", "attack.trigger", "attack.evaluate"}, l, n, ms)
	fmt.Fprintf(out, "analysis: parallel scaling %.2fx (%d workers vs 1 on the sample)\n", entry1.Seconds()/entryN.Seconds(), workers())
	at.result = ledgerResult{
		workload:  "analysis",
		attempted: n,
		failed:    bad,
		metrics: map[string]metric{
			"aras.generate_ms":        {ms(l.perCall("aras.generate")), "ms"},
			"aras.generate_allocs":    {l.allocsPerCall("aras.generate"), "allocs"},
			"adm.train_ms":            {ms(l.perCall("adm.train")), "ms"},
			"adm.train_allocs":        {l.allocsPerCall("adm.train"), "allocs"},
			"core.adm_trainings":      {float64(trainings), "count"},
			"attack.plan_ms":          {ms(l.perCall("attack.plan")), "ms"},
			"attack.plan_allocs":      {l.allocsPerCall("attack.plan"), "allocs"},
			"solver.windows":          {float64(windows) / float64(n), "count"},
			"solver.infeasible_ratio": {float64(infeasible) / float64(windows), "ratio"},
			"attack.trigger_ms":       {ms(l.perCall("attack.trigger")), "ms"},
			"attack.triggered_slots":  {float64(triggered) / float64(n), "count"},
			"attack.evaluate_ms":      {ms(l.perCall("attack.evaluate")), "ms"},
			"attack.evaluate_allocs":  {l.allocsPerCall("attack.evaluate"), "allocs"},
			"core.remainder_ms":       {remainder, "ms"},
			"core.parallel_scaling":   {entry1.Seconds() / entryN.Seconds(), "ratio"},
		},
	}
	return at, nil
}

// replayAnalysis replays one home's sweep cell layer by layer, in the
// pipeline's call order and on the suite's own world: generate the trace,
// train the DBSCAN defender on the training prefix (with the suite's
// density policy for short traces), plan SHATTER on one worker, trigger
// appliances (Algorithm 1) on a clone of the plan, and evaluate the impact,
// whose two per-slot simulations include the benign leg the suite caches.
func replayAnalysis(l *ledger, s *core.Suite, sp scenario.Spec) (replayedHome, core.SweepPoint, error) {
	world := s.World(sp.ID)
	if world == nil {
		return replayedHome{}, core.SweepPoint{}, fmt.Errorf("world not loaded")
	}
	var tr *aras.Trace
	if err := l.time("aras.generate", func() (err error) {
		tr, err = sp.Generate(analysedDays, world.Seed)
		return err
	}); err != nil {
		return replayedHome{}, core.SweepPoint{}, err
	}
	if !reflect.DeepEqual(tr.Days, world.Trace.Days) || !reflect.DeepEqual(tr.Weather, world.Trace.Weather) {
		return replayedHome{}, core.SweepPoint{}, fmt.Errorf("regenerated trace differs from the suite's world")
	}
	train, err := tr.SubTrace(0, trainDays)
	if err != nil {
		return replayedHome{}, core.SweepPoint{}, err
	}
	cfg := adm.DefaultConfig(adm.DBSCAN)
	cfg.MinPts = max(3, trainDays/5)
	cfg.Eps = 30
	var model *adm.Model
	if err := l.time("adm.train", func() (err error) {
		model, err = adm.Train(train, cfg)
		return err
	}); err != nil {
		return replayedHome{}, core.SweepPoint{}, err
	}
	house, pricing := tr.House, pricingFor(s, sp)
	pl := &attack.Planner{
		Trace:     tr,
		Model:     model,
		Cost:      hvac.NewCostModel(house, s.Params, pricing),
		Cap:       attack.Full(house),
		WindowLen: windowLen,
		Workers:   1,
	}
	var plan *attack.Plan
	if err := l.time("attack.plan", func() (err error) {
		plan, err = pl.PlanSHATTER()
		return err
	}); err != nil {
		return replayedHome{}, core.SweepPoint{}, err
	}
	plan = plan.CloneForTriggering()
	var triggered int
	_ = l.time("attack.trigger", func() error {
		triggered = attack.TriggerAppliances(tr, plan, model, pl.Cap)
		return nil
	})
	var imp attack.Impact
	if err := l.time("attack.evaluate", func() (err error) {
		imp, err = attack.EvaluateImpact(tr, plan, model, controllerFor(s.Params, sp, house), s.Params, pricing, attack.EvalOptions{})
		return err
	}); err != nil {
		return replayedHome{}, core.SweepPoint{}, err
	}
	return replayedHome{trace: tr, model: model, plan: plan}, core.SweepPoint{
		ScenarioID:        sp.ID,
		Zones:             len(house.Zones) - 1,
		Occupants:         len(house.Occupants),
		Appliances:        len(house.Appliances),
		BenignUSD:         imp.Benign.TotalCostUSD,
		AttackedUSD:       imp.Attacked.TotalCostUSD,
		ExtraUSD:          imp.ExtraCostUSD,
		DetectionRate:     imp.DetectionRate,
		InjectedSlots:     plan.InjectedSlots(tr),
		TriggeredSlots:    triggered,
		InfeasibleWindows: plan.InfeasibleWindows,
	}, nil
}

// --- attacked stream ledger -----------------------------------------------

// traceAttackedStream replays the attacked, defended direct-path stream of
// the analysed sample (Suite.Stream with Defend and Attack): each
// home-day's block comes from the job's own source and is ingested by the
// job's own home; a copy of it is also run through a separate injector,
// detector and day stepper, so each kernel inside Home.IngestDay is timed
// alone. The untraced stream must also match the batch sweep: every home's
// attacked bill and detection rate equal its SweepPoint's.
func traceAttackedStream(out io.Writer, at *analysisTrace) (ledgerResult, error) {
	specs := at.specs
	opts := core.StreamOptions{Defend: true, Attack: true}
	var ref stream.FleetResult
	entry1, err := medianTime(entryReps, func() (time.Duration, error) {
		return timeCall(func() (err error) {
			ref, err = at.s1.Stream(specs, opts)
			return err
		})
	})
	if err != nil {
		return ledgerResult{}, err
	}
	entryN, err := medianTime(entryReps, func() (time.Duration, error) {
		return timeCall(func() error {
			_, err := at.sN.Stream(specs, opts)
			return err
		})
	})
	if err != nil {
		return ledgerResult{}, err
	}
	jobs, err := at.s1.FleetJobs(specs, opts)
	if err != nil {
		return ledgerResult{}, err
	}
	l := newLedger()
	var blk, work stream.DayBlock
	var verdicts []adm.Verdict
	nVerdicts, homeDays := 0, 0
	bad := checkAttacked(ref, at.points)
	if bad > 0 {
		fmt.Fprintf(out, "attacked_stream: %d streamed homes differ from the batch sweep\n", bad)
	}
	for i, job := range jobs {
		rh := at.homes[i]
		var src stream.Source
		var h *stream.Home
		if err := l.time("stream.open", func() (err error) {
			src, h, err = job.Open()
			return err
		}); err != nil {
			return ledgerResult{}, err
		}
		bsrc, ok := src.(stream.BlockSource)
		if !ok {
			return ledgerResult{}, fmt.Errorf("home %s: source emits no day blocks", job.ID)
		}
		house := rh.trace.House
		inj, err := stream.NewInjector(house, rh.plan)
		if err != nil {
			return ledgerResult{}, err
		}
		det := adm.NewDetector(rh.model)
		sim, err := hvac.NewSim(house, controllerFor(at.s1.Params, specs[i], house), at.s1.Params, pricingFor(at.s1, specs[i]))
		if err != nil {
			return ledgerResult{}, err
		}
		for {
			err := l.time("aras.next_day", func() error { return bsrc.NextBlock(&blk) })
			if err == io.EOF {
				break
			}
			if err != nil {
				return ledgerResult{}, err
			}
			copyBlock(&work, &blk)
			_ = l.time("stream.rewrite_block", func() error {
				inj.RewriteBlock(&work)
				return nil
			})
			if err := l.time("adm.observe_day", func() (err error) {
				for o := range work.RepZone {
					if verdicts, err = det.ObserveDay(work.Day, o, work.RepZone[o], work.RepAct[o], verdicts[:0]); err != nil {
						return err
					}
					nVerdicts += len(verdicts)
				}
				return nil
			}); err != nil {
				return ledgerResult{}, err
			}
			in := dayInput(&work)
			if err := l.time("hvac.step_day", func() error { return sim.StepDay(&in) }); err != nil {
				return ledgerResult{}, err
			}
			if err := l.time("stream.ingest_day", func() error {
				_, err := h.IngestDay(&blk)
				return err
			}); err != nil {
				return ledgerResult{}, err
			}
			homeDays++
		}
		nVerdicts += len(det.Flush())
		hr, err := h.Close()
		if err != nil {
			return ledgerResult{}, err
		}
		if !reflect.DeepEqual(hr, ref.Homes[i]) || !reflect.DeepEqual(sim.Result(), hr.Sim) {
			bad++
			fmt.Fprintf(out, "attacked_stream: replay of %s differs from the untraced stream\n", job.ID)
		}
	}
	if int64(nVerdicts) != ref.Stats.Verdicts {
		bad++
		fmt.Fprintf(out, "attacked_stream: replayed detector gave %d verdicts, the stream %d\n", nVerdicts, ref.Stats.Verdicts)
	}
	remainder := attribution(out, "attacked_stream", "us/home-day", entry1,
		[]string{"stream.open", "aras.next_day", "stream.ingest_day"}, l, homeDays, us)
	fmt.Fprintf(out, "attacked_stream: inside stream.ingest_day, alone: rewrite_block %.2f + observe_day %.2f + step_day %.2f us/home-day\n",
		us(l.perCall("stream.rewrite_block")), us(l.perCall("adm.observe_day")), us(l.perCall("hvac.step_day")))
	fmt.Fprintf(out, "attacked_stream: parallel scaling %.2fx (%d workers vs 1 on the sample)\n", entry1.Seconds()/entryN.Seconds(), workers())
	return ledgerResult{
		workload:  "analysis",
		attempted: len(jobs),
		failed:    bad,
		metrics: map[string]metric{
			"stream.open_ms":            {ms(l.perCall("stream.open")), "ms"},
			"aras.next_day_us":          {us(l.perCall("aras.next_day")), "us"},
			"aras.next_day_allocs":      {l.allocsPerCall("aras.next_day"), "allocs"},
			"stream.rewrite_block_us":   {us(l.perCall("stream.rewrite_block")), "us"},
			"adm.observe_day_us":        {us(l.perCall("adm.observe_day")), "us"},
			"adm.observe_day_allocs":    {l.allocsPerCall("adm.observe_day"), "allocs"},
			"adm.verdicts_per_home_day": {float64(nVerdicts) / float64(homeDays), "count"},
			"hvac.step_day_us":          {us(l.perCall("hvac.step_day")), "us"},
			"hvac.step_day_allocs":      {l.allocsPerCall("hvac.step_day"), "allocs"},
			"stream.ingest_day_us":      {us(l.perCall("stream.ingest_day")), "us"},
			"stream.remainder_us":       {remainder, "us"},
			"stream.parallel_scaling":   {entry1.Seconds() / entryN.Seconds(), "ratio"},
			"stream.retries":            {float64(ref.Stats.Retries), "count"},
			"stream.restores":           {float64(ref.Stats.Restores), "count"},
		},
	}, nil
}

// checkAttacked counts homes whose streamed attacked bill or detection rate
// differs from the batch sweep's — the batch ≡ stream lock.
func checkAttacked(res stream.FleetResult, points []core.SweepPoint) int {
	bad := 0
	for i, p := range points {
		if i >= len(res.Homes) {
			bad++
			continue
		}
		h, out := res.Homes[i], res.Outcomes[i]
		if out.Status != stream.OutcomeCompleted || h.ID != p.ScenarioID ||
			h.Sim.TotalCostUSD != p.AttackedUSD || detectionRate(h) != p.DetectionRate {
			bad++
		}
	}
	return bad
}

func detectionRate(h stream.HomeResult) float64 {
	if h.Injected == 0 {
		return 0
	}
	return float64(h.Flagged) / float64(h.Injected)
}

// dayInput views a block's columns as the HVAC day stepper's input, exactly
// as Home.IngestDay does.
func dayInput(b *stream.DayBlock) hvac.DayInput {
	return hvac.DayInput{
		OutdoorTempF:      b.TempF,
		OutdoorCO2PPM:     b.CO2PPM,
		BelievedZone:      b.RepZone,
		BelievedAct:       b.RepAct,
		BelievedAppliance: b.RepAppliance,
		ActualZone:        b.TrueZone,
		ActualAct:         b.TrueAct,
		ActualAppliance:   b.TrueAppliance,
	}
}

// copyBlock deep-copies src into dst, reusing dst's storage.
func copyBlock(dst, src *stream.DayBlock) {
	dst.Home, dst.Day = src.Home, src.Day
	dst.TempF = append(dst.TempF[:0], src.TempF...)
	dst.CO2PPM = append(dst.CO2PPM[:0], src.CO2PPM...)
	dst.TrueZone = copyCols(dst.TrueZone, src.TrueZone)
	dst.TrueAct = copyCols(dst.TrueAct, src.TrueAct)
	dst.TrueAppliance = copyCols(dst.TrueAppliance, src.TrueAppliance)
	dst.RepZone = copyCols(dst.RepZone, src.RepZone)
	dst.RepAct = copyCols(dst.RepAct, src.RepAct)
	dst.RepAppliance = copyCols(dst.RepAppliance, src.RepAppliance)
}

func copyCols[T any](dst, src [][]T) [][]T {
	if len(dst) != len(src) {
		dst = make([][]T, len(src))
	}
	for i := range src {
		dst[i] = append(dst[i][:0], src[i]...)
	}
	return dst
}

// --- fleetd_wire ledger ---------------------------------------------------

// runWire is the untraced fleetd_wire entry point on a fresh durable
// service: it returns the AddSpec-to-WaitIdle time, the fleet result and
// the service's counters.
func runWire(o options, s *core.Suite, broker string, width int, req fleetd.AddRequest) (time.Duration, stream.FleetResult, fleetd.Snapshot, error) {
	dir, err := os.MkdirTemp(o.scratch, "fleetd-ledger-*")
	if err != nil {
		return 0, stream.FleetResult{}, fleetd.Snapshot{}, err
	}
	defer os.RemoveAll(dir)
	svc, err := core.NewFleetService(s, wireConfig(dir, broker, width))
	if err != nil {
		return 0, stream.FleetResult{}, fleetd.Snapshot{}, err
	}
	runtime.GC()
	d, err := timeCall(func() error {
		if _, err := svc.AddSpec(req); err != nil {
			return err
		}
		svc.WaitIdle()
		return nil
	})
	svc.Close(false) // see timedFleetdWire: records are final once the shard stops
	return d, svc.Result(), svc.Snapshot(), err
}

// countBusFrames runs the sample once more with a fleet-wide monitor
// subscribed to every home's sensor topic and returns the day frames it saw
// once every home's end-of-stream sentinel arrived.
func countBusFrames(o options, s *core.Suite, broker string, req fleetd.AddRequest) (int64, error) {
	mon, err := mqtt.Dial(broker)
	if err != nil {
		return 0, err
	}
	defer mon.Close()
	ch, err := mon.Subscribe("home/+/sensor")
	if err != nil {
		return 0, err
	}
	// A probe on the monitor's own connection comes back only once the
	// broker has registered the subscription.
	if err := mon.Publish(stream.SensorTopic("perfbench-monitor"), busHeader{Day: -2}); err != nil {
		return 0, err
	}
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		return 0, errors.New("monitor subscription probe lost")
	}
	var frames int64
	sentinels := make(chan struct{}, req.Synth) // one per home: never blocks
	done := make(chan struct{})
	go func() {
		defer close(done)
		for m := range ch {
			var hdr busHeader
			switch {
			case stream.IsBlockFrame(m.Payload):
				frames++
			case json.Unmarshal(m.Payload, &hdr) == nil && hdr.Day == -1:
				sentinels <- struct{}{}
			}
		}
	}()
	if _, _, _, err := runWire(o, s, broker, workers(), req); err != nil {
		return 0, err
	}
	timeout := time.After(10 * time.Second)
	for i := 0; i < req.Synth; i++ {
		select {
		case <-sentinels:
		case <-timeout:
			return 0, fmt.Errorf("monitor saw %d of %d end-of-stream sentinels", i, req.Synth)
		}
	}
	mon.Close()
	<-done
	return frames, nil
}

// busHeader is the position header of a JSON control frame on a home's
// sensor topic: day -1 ends a stream, day -2 is a subscription probe.
type busHeader struct {
	Day int `json:"day"`
}

// handshakeSource has no days: a pipe opened on it performs the two dials
// and the probe handshake and then ends its stream at once.
type handshakeSource struct{}

func (handshakeSource) Next(*stream.Slot) error          { return io.EOF }
func (handshakeSource) NextBlock(*stream.DayBlock) error { return io.EOF }

func traceFleetdWire(out io.Writer, o options) (ledgerResult, error) {
	w, _ := workloadByName("fleetd_wire")
	n := w.sample(o)
	specs := w.specs(o)[:n]
	req := wireRequest(o, n)
	s, err := newSuite(o.seed, 1)
	if err != nil {
		return ledgerResult{}, err
	}
	broker, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		return ledgerResult{}, err
	}
	defer broker.Close()
	addr := broker.Addr()
	var ref stream.FleetResult
	var snap fleetd.Snapshot
	entry1, err := medianTime(entryReps, func() (d time.Duration, err error) {
		d, ref, snap, err = runWire(o, s, addr, 1, req)
		return d, err
	})
	if err != nil {
		return ledgerResult{}, err
	}
	entryN, err := medianTime(entryReps, func() (time.Duration, error) {
		d, _, _, err := runWire(o, s, addr, workers(), req)
		return d, err
	})
	if err != nil {
		return ledgerResult{}, err
	}
	frames, err := countBusFrames(o, s, addr, req)
	if err != nil {
		return ledgerResult{}, err
	}

	dir, err := os.MkdirTemp(o.scratch, "fleetd-replay-*")
	if err != nil {
		return ledgerResult{}, err
	}
	defer os.RemoveAll(dir)
	man, _, err := fleetd.OpenManifest(dir)
	if err != nil {
		return ledgerResult{}, err
	}
	defer man.Close()
	ckDir := filepath.Join(dir, "checkpoints")
	pub, err := mqtt.Dial(addr)
	if err != nil {
		return ledgerResult{}, err
	}
	defer pub.Close()
	sub, err := mqtt.Dial(addr)
	if err != nil {
		return ledgerResult{}, err
	}
	defer sub.Close()
	jobs, err := s.FleetJobs(specs, core.StreamOptions{Days: wireDays})
	if err != nil {
		return ledgerResult{}, err
	}

	l := newLedger()
	var blk, rx stream.DayBlock
	var frame []byte
	var ckBuf bytes.Buffer
	var frameBytes, ckBytes, homeDays, bad int
	for i, job := range jobs {
		var src stream.Source
		var h *stream.Home
		if err := l.time("stream.open", func() (err error) {
			src, h, err = job.Open()
			return err
		}); err != nil {
			return ledgerResult{}, err
		}
		topic := stream.SensorTopic(job.ID)
		var pipe *stream.Pipe
		if err := l.time("stream.pipe_open", func() (err error) {
			pipe, err = stream.OpenPipeOptions(addr, topic, handshakeSource{}, stream.PipeOptions{Blocks: true})
			return err
		}); err != nil {
			return ledgerResult{}, err
		}
		if err := pipe.NextBlock(&rx); err != io.EOF {
			pipe.Close()
			return ledgerResult{}, fmt.Errorf("handshake pipe for %s: want end of stream, got %v", job.ID, err)
		}
		pipe.Close()
		ch, err := sub.Subscribe(topic)
		if err != nil {
			return ledgerResult{}, err
		}
		if err := sub.Publish(topic, busHeader{Day: -2}); err != nil {
			return ledgerResult{}, err
		}
		if _, err := receive(ch); err != nil {
			return ledgerResult{}, err
		}
		bsrc, ok := src.(stream.BlockSource)
		if !ok {
			return ledgerResult{}, fmt.Errorf("home %s: source emits no day blocks", job.ID)
		}
		house, err := specs[i].Build()
		if err != nil {
			return ledgerResult{}, err
		}
		sim, err := hvac.NewSim(house, controllerFor(s.Params, specs[i], house), s.Params, pricingFor(s, specs[i]))
		if err != nil {
			return ledgerResult{}, err
		}
		for {
			err := l.time("aras.next_day", func() error { return bsrc.NextBlock(&blk) })
			if err == io.EOF {
				break
			}
			if err != nil {
				return ledgerResult{}, err
			}
			if err := l.time("stream.encode_frame", func() (err error) {
				frame, err = stream.AppendBlockFrame(frame[:0], &blk, 0)
				return err
			}); err != nil {
				return ledgerResult{}, err
			}
			frameBytes += len(frame)
			var msg mqtt.Message
			if err := l.time("mqtt.publish_deliver", func() (err error) {
				if err := pub.PublishRaw(topic, frame); err != nil {
					return err
				}
				msg, err = receive(ch)
				return err
			}); err != nil {
				return ledgerResult{}, err
			}
			if err := l.time("stream.decode_frame", func() error {
				_, err := stream.DecodeBlockFrame(&rx, msg.Payload)
				return err
			}); err != nil {
				return ledgerResult{}, err
			}
			in := dayInput(&rx)
			if err := l.time("hvac.step_day", func() error { return sim.StepDay(&in) }); err != nil {
				return ledgerResult{}, err
			}
			if err := l.time("stream.ingest_day", func() error {
				_, err := h.IngestDay(&rx)
				return err
			}); err != nil {
				return ledgerResult{}, err
			}
			var ck *stream.Checkpoint
			if err := l.time("stream.checkpoint_snapshot", func() (err error) {
				ck, err = h.Checkpoint()
				return err
			}); err != nil {
				return ledgerResult{}, err
			}
			if err := l.time("stream.checkpoint_write", func() error {
				ckBuf.Reset()
				return stream.WriteCheckpoint(&ckBuf, ck)
			}); err != nil {
				return ledgerResult{}, err
			}
			ckBytes += ckBuf.Len()
			if err := l.time("stream.checkpoint_save", func() error { return stream.SaveCheckpoint(ckDir, ck) }); err != nil {
				return ledgerResult{}, err
			}
			homeDays++
		}
		hr, err := h.Close()
		if err != nil {
			return ledgerResult{}, err
		}
		if err := stream.RemoveCheckpoint(ckDir, job.ID); err != nil {
			return ledgerResult{}, err
		}
		outcome := stream.HomeOutcome{ID: job.ID, Status: stream.OutcomeCompleted, Attempts: 1, Days: hr.Days}
		if err := l.time("fleetd.manifest_append", func() error {
			return man.Append(fleetd.ManifestRecord{Op: "done", Home: job.ID, Outcome: &outcome, Result: &hr})
		}); err != nil {
			return ledgerResult{}, err
		}
		if !reflect.DeepEqual(hr, ref.Homes[i]) || !reflect.DeepEqual(sim.Result(), hr.Sim) {
			bad++
			fmt.Fprintf(out, "fleetd_wire: replay of %s differs from the service's result\n", job.ID)
		}
	}
	if snap.Retries != 0 || snap.Restores != 0 || snap.WatchdogTrips != 0 || snap.HomesFailed != 0 {
		bad++
		fmt.Fprintf(out, "fleetd_wire: untraced service recovered from faults: %d retries, %d restores, %d watchdog trips, %d failed\n",
			snap.Retries, snap.Restores, snap.WatchdogTrips, snap.HomesFailed)
	}
	remainder := attribution(out, "fleetd_wire", "us/home-day", entry1,
		[]string{"stream.open", "stream.pipe_open", "aras.next_day", "stream.encode_frame", "mqtt.publish_deliver",
			"stream.decode_frame", "stream.ingest_day", "stream.checkpoint_snapshot", "stream.checkpoint_save",
			"fleetd.manifest_append"}, l, homeDays, us)
	fmt.Fprintf(out, "fleetd_wire: parallel scaling %.2fx (%d workers vs 1 on the sample)\n", entry1.Seconds()/entryN.Seconds(), workers())
	ckCalls := l.spans["stream.checkpoint_snapshot"].calls
	return ledgerResult{
		workload:  "fleetd_wire",
		attempted: len(jobs),
		failed:    bad,
		metrics: map[string]metric{
			"stream.open_ms":                  {ms(l.perCall("stream.open")), "ms"},
			"stream.pipe_open_ms":             {ms(l.perCall("stream.pipe_open")), "ms"},
			"aras.next_day_us":                {us(l.perCall("aras.next_day")), "us"},
			"aras.next_day_allocs":            {l.allocsPerCall("aras.next_day"), "allocs"},
			"hvac.step_day_us":                {us(l.perCall("hvac.step_day")), "us"},
			"hvac.step_day_allocs":            {l.allocsPerCall("hvac.step_day"), "allocs"},
			"stream.ingest_day_us":            {us(l.perCall("stream.ingest_day")), "us"},
			"stream.encode_frame_us":          {us(l.perCall("stream.encode_frame")), "us"},
			"stream.decode_frame_us":          {us(l.perCall("stream.decode_frame")), "us"},
			"stream.frame_bytes":              {float64(frameBytes) / float64(homeDays), "bytes"},
			"mqtt.publish_deliver_us":         {us(l.perCall("mqtt.publish_deliver")), "us"},
			"mqtt.bus_frames_per_home_day":    {float64(frames) / float64(homeDays), "count"},
			"stream.checkpoint_encode_us":     {us((l.total("stream.checkpoint_snapshot") + l.total("stream.checkpoint_write")) / time.Duration(ckCalls)), "us"},
			"stream.checkpoint_save_us":       {us(l.perCall("stream.checkpoint_save")), "us"},
			"stream.checkpoint_bytes":         {float64(ckBytes) / float64(ckCalls), "bytes"},
			"fleetd.manifest_append_us":       {us(l.perCall("fleetd.manifest_append")), "us"},
			"fleetd.remainder_us":             {remainder, "us"},
			"fleetd.parallel_scaling":         {entry1.Seconds() / entryN.Seconds(), "ratio"},
			"fleetd.watchdog_trips":           {float64(snap.WatchdogTrips), "count"},
			"fleetd.checkpoints_per_home_day": {float64(snap.Checkpoints) / math.Max(1, float64(snap.Days)), "count"},
			"stream.retries":                  {float64(snap.Retries), "count"},
			"stream.restores":                 {float64(snap.Restores), "count"},
		},
	}, nil
}

// receive waits for the next message on a subscription.
func receive(ch <-chan mqtt.Message) (mqtt.Message, error) {
	select {
	case m, ok := <-ch:
		if !ok {
			return mqtt.Message{}, errors.New("subscription closed")
		}
		return m, nil
	case <-time.After(10 * time.Second):
		return mqtt.Message{}, errors.New("no delivery within 10s")
	}
}
