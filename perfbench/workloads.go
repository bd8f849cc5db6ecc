package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"runtime"
	"time"

	"github.com/acyd-lab/shatter/internal/core"
	"github.com/acyd-lab/shatter/internal/fleetd"
	"github.com/acyd-lab/shatter/internal/mqtt"
	"github.com/acyd-lab/shatter/internal/scenario"
	"github.com/acyd-lab/shatter/internal/stream"
)

// Suite shape shared by the analysed workloads: the paper's 10-slot
// planning window over a 12-day trace whose first 9 days train the ADM.
const (
	analysedDays = 12
	trainDays    = 9
	windowLen    = 10
	// wireDays is each fleetd_wire home's stream length.
	wireDays = 4
	// wireResident bounds fleetd_wire's admission window: each resident
	// home holds two broker connections and a pump goroutine.
	wireResident = 8
	// wireDeadline arms the shard's liveness watchdog far above any healthy
	// home-day, so a trip means a wedged transport, not a slow machine.
	wireDeadline = 30 * time.Second
)

// workload is one closed-loop benchmark workload. Cohorts are multiples of
// 24 homes, the period of scenario.SynthFleet's (zones, occupants) shape
// cycle, so every seed yields the same mix of home shapes and only the
// homes' random details change with the seed.
type workload struct {
	name  string
	homes int
	days  int
	// sampleHomes is the traced run's sample of the cohort.
	sampleHomes int
	timed       func(out io.Writer, o options, specs []scenario.Spec, t *tally) error
}

var workloads = []workload{
	// Cold SHATTER analytics: DBSCAN training, planning, triggering and
	// impact per home, with no artifact shared between homes.
	{
		name:        "analysis",
		homes:       48,
		days:        analysedDays,
		sampleHomes: 8,
		timed:       timedAnalysis,
	},
	// The durable fleet service over MQTT: the only workload that runs the
	// codec, broker routing, pipe handshake, checkpoints and manifest.
	{
		name:        "fleetd_wire",
		homes:       384,
		days:        wireDays,
		sampleHomes: 24,
		timed:       timedFleetdWire,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// cohort and sample resolve the workload's sizes; tests override both.
func (w workload) cohort(o options) int {
	if o.homes > 0 {
		return o.homes
	}
	return w.homes
}

func (w workload) sample(o options) int {
	if o.sample > 0 {
		return min(o.sample, w.cohort(o))
	}
	return w.sampleHomes
}

// specs builds the workload's cohort from the seed.
func (w workload) specs(o options) []scenario.Spec {
	return scenario.SynthFleet(w.cohort(o), o.seed)
}

// newSuite builds a fresh suite (nothing cached) at the given pool width.
func newSuite(seed uint64, width int) (*core.Suite, error) {
	return core.NewSuite(core.SuiteConfig{
		Days:      analysedDays,
		TrainDays: trainDays,
		Seed:      seed,
		WindowLen: windowLen,
		Workers:   width,
	})
}

// tally accumulates one timed run.
type tally struct {
	setup   []float64 // seconds per setup
	rates   []float64 // home-days per second, one per measured pass
	latency []float64 // per-home milliseconds
	// heap is the live MiB after the first measured pass. Later passes would
	// also count the first passes' pending watchdog timers in fleetd_wire,
	// which makes the reading depend on how fast the passes ran.
	heap float64
	// homeDays is the home-days completed across the measured passes.
	homeDays int
	// attempted and failed count homes; a home fails on an error, a
	// quarantine, or an output-check mismatch.
	attempted, failed int
	measured          time.Duration
	// allocMiB and gcs are what the measured passes allocated and how many
	// collections ran inside them.
	allocMiB float64
	gcs      uint32
}

// more reports whether the measured phase needs another pass: it runs for
// the requested time and until every reported percentile is supported.
func (t *tally) more(o options) bool {
	return t.measured < o.seconds || len(t.latency) < o.minSamples
}

// measure runs fn as one measured pass over homeDays home-days.
func (t *tally) measure(homeDays int, fn func() error) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	began := time.Now()
	err := fn()
	d := time.Since(began)
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	t.measured += d
	t.homeDays += homeDays
	t.rates = append(t.rates, float64(homeDays)/d.Seconds())
	t.allocMiB += float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.gcs += after.NumGC - before.NumGC
	return nil
}

func timed(out io.Writer, o options, w workload) (result, error) {
	specs := w.specs(o)
	var t tally
	if err := w.timed(out, o, specs, &t); err != nil {
		return result{}, err
	}
	n := len(t.latency)
	p := highestSupported(n, reportedPercentiles)
	fmt.Fprintf(out, "%s: %d homes x %d days, %d passes in %.2f s measured, %d setups\n",
		w.name, len(specs), w.days, len(t.rates), t.measured.Seconds(), len(t.setup))
	fmt.Fprintf(out, "%s: %d per-home latency samples; highest percentile with >= %d beyond: p%g\n",
		w.name, n, minBeyond, p)
	fmt.Fprintf(out, "%s: pass rates (home-days/s) %.1f; setups (s) %.3f\n", w.name, t.rates, t.setup)
	fmt.Fprintf(out, "%s: measured passes allocated %.0f MiB; %d collections ran inside them\n", w.name, t.allocMiB, t.gcs)
	res := result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics: map[string]metric{
			"setup_s":             {median(t.setup), "s"},
			"home_days_per_s":     {float64(t.homeDays) / t.measured.Seconds(), "home-days/s"},
			"home_latency_p50_ms": {percentile(t.latency, 50), "ms"},
			"home_latency_p90_ms": {percentile(t.latency, 90), "ms"},
			"heap_live_mib":       {t.heap, "MiB"},
		},
	}
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(out, "%s: %-20s %12.4f %s\n", w.name, k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Fprintf(out, "%s: %d homes attempted, %d failed\n", w.name, t.attempted, t.failed)
	return res, nil
}

// --- analysis ---------------------------------------------------------------

// timedAnalysis runs cold ScenarioSweep passes over the cohort, each on a
// fresh suite so no home reuses a cached artifact. Setup is building the
// suite and generating the cohort's traces (FleetJobs with Defend
// materializes every world without training anything).
func timedAnalysis(out io.Writer, o options, specs []scenario.Spec, t *tally) error {
	var want []core.SweepPoint
	for t.more(o) {
		began := time.Now()
		s, err := newSuite(o.seed, workers())
		if err != nil {
			return err
		}
		if _, err := s.FleetJobs(specs, core.StreamOptions{Defend: true}); err != nil {
			return err
		}
		t.setup = append(t.setup, time.Since(began).Seconds())
		runtime.GC()
		var points []core.SweepPoint
		if err := t.measure(len(specs)*analysedDays, func() (err error) {
			points, err = s.ScenarioSweep(specs)
			return err
		}); err != nil {
			return err
		}
		for _, p := range points {
			t.latency = append(t.latency, ms(p.Elapsed))
		}
		if want == nil {
			want = deterministicPoints(points)
			fmt.Fprintf(out, "analysis: sweep digest %s\n", digest(want))
		}
		t.attempted += len(points)
		t.failed += checkSweep(points, want)
		if t.heap == 0 {
			t.heap = liveHeapMiB()
		}
		runtime.KeepAlive(s)
	}
	return nil
}

// deterministicPoints strips the one wall-clock field from sweep points.
func deterministicPoints(points []core.SweepPoint) []core.SweepPoint {
	out := make([]core.SweepPoint, len(points))
	for i, p := range points {
		p.Elapsed = 0
		out[i] = p
	}
	return out
}

// checkSweep counts homes whose deterministic sweep fields differ from the
// reference or are not a plausible analysis (a bill, a rate in [0,1]).
func checkSweep(points, want []core.SweepPoint) int {
	bad := 0
	for i, p := range deterministicPoints(points) {
		if i >= len(want) || p != want[i] || !plausible(p) {
			bad++
		}
	}
	return bad + max(0, len(want)-len(points))
}

func plausible(p core.SweepPoint) bool {
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	return p.BenignUSD > 0 && finite(p.AttackedUSD) && finite(p.ExtraUSD) &&
		p.DetectionRate >= 0 && p.DetectionRate <= 1
}

// digest is a short SHA-256 over a value's Go syntax, for logging that two
// runs over the same seed computed the same results.
func digest(v any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", v)))
	return hex.EncodeToString(sum[:8])
}

// --- fleetd_wire ----------------------------------------------------------

// wireRequest is the benign multi-day cohort admitted with one AddSpec.
func wireRequest(o options, homes int) fleetd.AddRequest {
	return fleetd.AddRequest{Synth: homes, Seed: o.seed, Days: wireDays}
}

// wireConfig is the durable service: a manifest and async day-boundary
// checkpoints under the state dir, supervised retries, the liveness
// watchdog, and one shard moving binary day frames through the broker.
func wireConfig(stateDir, broker string, width int) fleetd.Config {
	return fleetd.Config{
		Shards:   1,
		StateDir: stateDir,
		Shard: fleetd.ShardOptions{
			Workers:          width,
			MaxResident:      wireResident,
			Recover:          true,
			AsyncCheckpoints: true,
			ProgressDeadline: wireDeadline,
			Broker:           broker,
		},
	}
}

// timedFleetdWire runs one fresh durable service per pass. Setup builds the
// oracle — the same cohort streamed with no broker and no state dir — and
// the service with a new state dir; the measured phase is AddSpec through
// WaitIdle.
func timedFleetdWire(out io.Writer, o options, specs []scenario.Spec, t *tally) error {
	s, err := newSuite(o.seed, workers())
	if err != nil {
		return err
	}
	broker, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer broker.Close()
	for t.more(o) {
		began := time.Now()
		ref, err := s.Stream(specs, core.StreamOptions{Days: wireDays})
		if err != nil {
			return err
		}
		dir, err := os.MkdirTemp(o.scratch, "fleetd-wire-*")
		if err != nil {
			return err
		}
		svc, err := core.NewFleetService(s, wireConfig(dir, broker.Addr(), workers()))
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		t.setup = append(t.setup, time.Since(began).Seconds())
		runtime.GC()
		if err := t.measure(len(specs)*wireDays, func() error {
			if _, err := svc.AddSpec(wireRequest(o, len(specs))); err != nil {
				return err
			}
			svc.WaitIdle()
			return nil
		}); err != nil {
			svc.Close(false)
			os.RemoveAll(dir)
			return err
		}
		if t.heap == 0 {
			t.heap = liveHeapMiB()
		}
		// Result and Snapshot are read after Close: a shard worker adds a
		// home's last quantum to its duration after marking the home done,
		// so only a stopped shard's records are final.
		svc.Close(false)
		res, snap := svc.Result(), svc.Snapshot()
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		if t.attempted == 0 {
			fmt.Fprintf(out, "fleetd_wire: result digest %s\n", digest(res.Homes))
		}
		t.attempted += len(specs)
		t.failed += checkWire(res, ref, snap)
		for _, oc := range res.Outcomes {
			t.latency = append(t.latency, ms(oc.Duration))
		}
	}
	return nil
}

// checkWire counts homes whose service result differs from the oracle's or
// whose supervision record shows a retry, restore or quarantine; a watchdog
// trip fails the run even when every home recovered.
func checkWire(res, ref stream.FleetResult, snap fleetd.Snapshot) int {
	bad := 0
	for i, want := range ref.Homes {
		if i >= len(res.Homes) {
			bad++
			continue
		}
		out := res.Outcomes[i]
		if !reflect.DeepEqual(res.Homes[i], want) || out.Status != stream.OutcomeCompleted ||
			out.Attempts != 1 || out.Restores != 0 {
			bad++
		}
	}
	if bad == 0 && (snap.WatchdogTrips > 0 || snap.Retries > 0 || snap.Restores > 0 || snap.HomesFailed > 0) {
		bad = 1
	}
	return bad
}
