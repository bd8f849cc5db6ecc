// Command bench runs the experiment suite end to end and emits a
// machine-readable JSON baseline (wall time per experiment, allocation
// stats, cache effectiveness) for tracking the performance trajectory
// across PRs. Alongside the per-table experiments it measures a
// scenario_sweep series (the full pipeline over registry archetypes and
// procedural homes up to 12 zones / 4 occupants), a stream_fleet
// series: the incremental streaming runtime driving a procedurally
// generated fleet concurrently, reporting homes/sec and events/sec — a
// stream_fleet_mqtt series routing the same fleet through an in-process
// broker on the binary day-block transport — and a stream_fleet_chaos
// series, the same fleet under the supervised fault-injection path
// (block-scale seeded chaos, checkpointed retries on a virtual clock),
// which prices the resilience layer against the clean run. A separate
// fleetd_scale series runs the sharded fleet service's worker pools over
// -fleetd-scale home counts (plus -fleetd-chaos counts under
// mixed fault injection), producing the scaling curve committed as
// BENCH_PR9.json. A fleetd_restart series prices process-level recovery:
// a fleet admitted through the durable manifest is dropped without any
// flush at roughly half completion and rebooted from the state directory,
// measuring manifest replay and the catch-up run from day-boundary
// checkpoints (committed as BENCH_PR10.json).
//
// Usage:
//
//	bench [-days N] [-train N] [-seed S] [-workers N] [-o BENCH.json]
//	      [-fleet-homes N] [-fleet-days N] [-fleetd-scale N1,N2,...]
//	      [-fleetd-chaos N1,N2,...] [-fleetd-days N] [-fleetd-restart N]
//	      [-cpuprofile F] [-memprofile F] [-baseline BENCH.json]
//	      [-max-regress R] [-chaos-ratio R] [-compare BENCH.json]
//
// The default configuration matches the benchmark harness's quick suite
// (12 days) so numbers are comparable with `go test -bench` and with the
// BENCH_PR1.json baseline.
//
// -baseline turns the run into a perf gate: after measuring, every warm
// series — and every fleetd_scale point with a matching (homes, days)
// shape in the baseline — is compared against the named committed baseline
// and the command exits non-zero when any regresses by more than
// -max-regress (default 2×, plus a small absolute slack so
// microsecond-scale series don't flake on scheduler noise). -compare
// prints a per-series delta table (warm times, fleetd points, speedup
// factors) against a prior report without gating — the PR-to-PR
// comparison view. -cpuprofile / -memprofile emit pprof profiles of the
// whole run so perf work starts from a profile, not a guess.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/acyd-lab/shatter/internal/core"
	"github.com/acyd-lab/shatter/internal/fleetd"
	"github.com/acyd-lab/shatter/internal/mqtt"
	"github.com/acyd-lab/shatter/internal/profiling"
	"github.com/acyd-lab/shatter/internal/scenario"
	"github.com/acyd-lab/shatter/internal/stream"
)

// Measurement is one experiment's wall-clock record. Cold is the first run
// (artifact cache faults in models, splits, and simulations); Warm is a
// second run over the populated cache.
type Measurement struct {
	Name   string `json:"name"`
	ColdNS int64  `json:"cold_ns"`
	WarmNS int64  `json:"warm_ns"`
}

// Report is the emitted baseline document.
type Report struct {
	Days         int           `json:"days"`
	TrainDays    int           `json:"train_days"`
	Seed         uint64        `json:"seed"`
	Workers      int           `json:"workers"`
	GOMAXPROCS   int           `json:"gomaxprocs"`
	SuiteBuildNS int64         `json:"suite_build_ns"`
	Experiments  []Measurement `json:"experiments"`
	// StreamFleet is the stream_fleet series' aggregate: homes/sec and
	// events/sec for FleetHomes homes streaming FleetDays days each.
	FleetHomes  int                `json:"fleet_homes"`
	FleetDays   int                `json:"fleet_days"`
	StreamFleet *stream.FleetStats `json:"stream_fleet,omitempty"`
	// StreamFleetMQTT is the stream_fleet_mqtt series' aggregate: the same
	// fleet routed through an in-process MQTT broker on the binary day-block
	// transport, pricing the wire hop against the direct path.
	StreamFleetMQTT *stream.FleetStats `json:"stream_fleet_mqtt,omitempty"`
	// StreamFleetChaos is the stream_fleet_chaos series' aggregate: the
	// same fleet under the supervised fault-injection path (block-scale
	// seeded chaos on the day-frame transport, checkpointed retries on a
	// virtual clock), reporting the resilience counters alongside
	// throughput.
	StreamFleetChaos *stream.FleetStats `json:"stream_fleet_chaos,omitempty"`
	// FleetdScale is the sharded fleet service's scaling curve: each point
	// runs N synthetic homes through the fleet service's shards
	// (internal/fleetd) on this machine. Points whose (homes, days) shape
	// exists in the gate baseline are gated on elapsed time; other point
	// counts (CI runs small, committed baselines go to 100k+) are reported
	// but never fail the gate.
	FleetdScale []FleetdPoint `json:"fleetd_scale,omitempty"`
	// FleetdRestart is the fleetd_restart series: the crash-restart recovery
	// measurement over the durable state directory.
	FleetdRestart *FleetdRestart `json:"fleetd_restart,omitempty"`
	ADMTrainings  int64          `json:"adm_trainings"`
	CacheEntries  int            `json:"cache_entries"`
	TotalNS       int64          `json:"total_ns"`
}

// FleetdPoint is one fleetd scaling measurement. Chaos points run the same
// fleet under mixed block-scale fault injection with supervised retries on
// a virtual clock (in-memory checkpoints), and carry the resilience
// counters the run induced.
type FleetdPoint struct {
	Homes          int     `json:"homes"`
	Days           int     `json:"days"`
	Shards         int     `json:"shards"`
	Chaos          bool    `json:"chaos,omitempty"`
	Retries        int64   `json:"retries,omitempty"`
	Restores       int64   `json:"restores,omitempty"`
	ElapsedNS      int64   `json:"elapsed_ns"`
	Slots          int64   `json:"slots"`
	Events         int64   `json:"events"`
	HomesPerSec    float64 `json:"homes_per_sec"`
	DaysPerSec     float64 `json:"days_per_sec"`
	EventsPerSec   float64 `json:"events_per_sec"`
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
}

// FleetdRestart is the fleetd_restart series' record: a fleet admitted
// through the durable manifest is dropped without any persistence flush
// (the bench's stand-in for kill -9) at roughly half completion and
// rebooted from the same state directory. ReplayNS covers manifest replay
// plus re-admission inside NewService; ResumeNS is the rebooted service's
// catch-up run — finished homes served from the journal, in-flight homes
// restored from their newest day-boundary checkpoints.
type FleetdRestart struct {
	Homes        int   `json:"homes"`
	Days         int   `json:"days"`
	KilledAtDone int64 `json:"killed_at_done"`
	ResumedDone  int   `json:"resumed_done"`
	ResumedLive  int   `json:"resumed_live"`
	Restores     int64 `json:"restores"`
	ReplayNS     int64 `json:"replay_ns"`
	ResumeNS     int64 `json:"resume_ns"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	days := fs.Int("days", 12, "trace length in days")
	train := fs.Int("train", 9, "ADM training days")
	seed := fs.Uint64("seed", 20230427, "dataset seed")
	workers := fs.Int("workers", 0, "experiment worker pool (0 = all CPUs)")
	fleetHomes := fs.Int("fleet-homes", 100, "stream_fleet series: concurrent synth homes")
	fleetDays := fs.Int("fleet-days", 2, "stream_fleet series: days per home")
	fleetdScale := fs.String("fleetd-scale", "1000", "fleetd scaling series: comma-separated home counts (empty disables)")
	fleetdChaos := fs.String("fleetd-chaos", "1000", "fleetd chaos scaling series: comma-separated home counts run under mixed fault injection (empty disables)")
	fleetdDays := fs.Int("fleetd-days", 1, "fleetd scaling series: days per home")
	fleetdRestart := fs.Int("fleetd-restart", 1000, "fleetd_restart series: homes for the crash-restart recovery measurement (0 disables)")
	chaosRatio := fs.Float64("chaos-ratio", 0, "fail when warm stream_fleet_chaos exceeds this multiple of warm stream_fleet (0 disables)")
	out := fs.String("o", "BENCH_PR10.json", "output path (- for stdout)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile (after a final GC) to this file")
	baseline := fs.String("baseline", "", "committed baseline report to gate warm series against")
	maxRegress := fs.Float64("max-regress", 2.0, "fail when a warm series exceeds this multiple of the baseline")
	compare := fs.String("compare", "", "prior report to print a per-series delta table against (no gating)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stopProfiles()

	cfg := core.SuiteConfig{Days: *days, TrainDays: *train, Seed: *seed, WindowLen: 10, Workers: *workers}
	started := time.Now()
	buildStart := time.Now()
	s, err := core.NewSuite(cfg)
	if err != nil {
		return err
	}
	report := Report{
		Days:         cfg.Days,
		TrainDays:    cfg.TrainDays,
		Seed:         cfg.Seed,
		Workers:      cfg.Workers,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		SuiteBuildNS: time.Since(buildStart).Nanoseconds(),
	}

	experiments := []struct {
		name string
		run  func() error
	}{
		{"Fig3", discard(s.Fig3)},
		{"Fig4", discard(s.Fig4)},
		{"Fig5", discard(s.Fig5)},
		{"Fig6", discard(s.Fig6)},
		{"TableIII", discard(s.CaseStudy)},
		{"TableIV", discard(s.TableIV)},
		{"TableV", discard(s.TableV)},
		{"Fig10", discard(s.Fig10)},
		{"TableVI", discard(s.TableVI)},
		{"TableVII", discard(s.TableVII)},
		{"scenario_sweep", func() error {
			// Full pipeline over the non-ARAS registry archetypes plus a
			// procedural ramp to 12 zones / 4 occupants. The warm leg reuses
			// every per-scenario cached artifact.
			_, err := s.ScenarioSweep(scenario.DefaultSweep(cfg.Seed))
			return err
		}},
		{"stream_fleet", func() error {
			// The streaming runtime at fleet scale: N procedurally generated
			// homes advance one day block at a time over the worker pool.
			// There is no artifact cache on this path (nothing is
			// materialized), so cold and warm legs measure the same
			// steady-state throughput; the emitted stats come from the warm
			// leg.
			res, err := s.Stream(scenario.SynthFleet(*fleetHomes, cfg.Seed), core.StreamOptions{Days: *fleetDays})
			if err != nil {
				return err
			}
			report.FleetHomes = *fleetHomes
			report.FleetDays = *fleetDays
			report.StreamFleet = &res.Stats
			return nil
		}},
		{"stream_fleet_mqtt", func() error {
			// The wire series: the same fleet routed through an in-process
			// MQTT broker on the binary day-block transport. The delta
			// against stream_fleet prices the broker hop.
			broker, err := mqtt.NewBroker("127.0.0.1:0")
			if err != nil {
				return err
			}
			defer broker.Close()
			res, err := s.Stream(scenario.SynthFleet(*fleetHomes, cfg.Seed), core.StreamOptions{
				Days:         *fleetDays,
				ShardOptions: fleetd.ShardOptions{Broker: broker.Addr()},
			})
			if err != nil {
				return err
			}
			report.StreamFleetMQTT = &res.Stats
			return nil
		}},
		{"stream_fleet_chaos", func() error {
			// The same fleet under the supervised fault path: a seeded chaos
			// schedule perturbs every home's day-frame transport, failed
			// homes retry from their in-memory day-boundary checkpoints, and
			// delay faults plus retry backoff burn virtual time instead of
			// wall-clock. The stats record how much resilience work
			// (retries, restores) the faults induced; the delta against
			// stream_fleet prices the supervision layer.
			res, err := s.Stream(scenario.SynthFleet(*fleetHomes, cfg.Seed), core.StreamOptions{
				Days: *fleetDays,
				ShardOptions: fleetd.ShardOptions{
					Recover: true,
					Clock:   stream.NewVirtualClock(),
					// Block-scale probabilities: the transport moves one
					// frame per home-day, so per-frame rates are ~1000x the
					// per-slot rates earlier baselines used.
					Chaos: &stream.FaultConfig{
						Seed: cfg.Seed, Drop: 0.04, Duplicate: 0.06, Delay: 0.05,
						Corrupt: 0.02, Truncate: 0.02, Disconnect: 0.01,
						MaxDelay: 100 * time.Microsecond,
					},
				},
			})
			if err != nil {
				return err
			}
			if res.Stats.Quarantined != 0 {
				return fmt.Errorf("chaos quarantined %d homes", res.Stats.Quarantined)
			}
			if res.Stats.Retries == 0 || res.Stats.Restores == 0 {
				return fmt.Errorf("chaos fixture inert: %d retries, %d restores", res.Stats.Retries, res.Stats.Restores)
			}
			report.StreamFleetChaos = &res.Stats
			return nil
		}},
	}
	for _, e := range experiments {
		cold := time.Now()
		if err := e.run(); err != nil {
			return fmt.Errorf("%s (cold): %w", e.name, err)
		}
		coldNS := time.Since(cold).Nanoseconds()
		warm := time.Now()
		if err := e.run(); err != nil {
			return fmt.Errorf("%s (warm): %w", e.name, err)
		}
		report.Experiments = append(report.Experiments, Measurement{
			Name:   e.name,
			ColdNS: coldNS,
			WarmNS: time.Since(warm).Nanoseconds(),
		})
	}
	scaleSeries := []struct {
		flag, spec string
		chaos      bool
	}{
		{"-fleetd-scale", *fleetdScale, false},
		{"-fleetd-chaos", *fleetdChaos, true},
	}
	for _, series := range scaleSeries {
		for _, field := range strings.Split(series.spec, ",") {
			field = strings.TrimSpace(field)
			if field == "" {
				continue
			}
			n, err := strconv.Atoi(field)
			if err != nil || n < 1 {
				return fmt.Errorf("bad %s entry %q (want positive home counts)", series.flag, field)
			}
			pt, err := runFleetdScale(s, n, *fleetdDays, cfg.Seed, series.chaos)
			if err != nil {
				return fmt.Errorf("%s %d: %w", fleetdPointName(FleetdPoint{Homes: n, Days: *fleetdDays, Chaos: series.chaos}), n, err)
			}
			fmt.Fprintf(os.Stderr, "%s: %d homes x %d days in %s (%.1f homes/s, %.0f events/s, %d retries, %d restores, heap %.1f MiB)\n",
				fleetdPointName(pt), pt.Homes, pt.Days, time.Duration(pt.ElapsedNS).Round(time.Millisecond),
				pt.HomesPerSec, pt.EventsPerSec, pt.Retries, pt.Restores, float64(pt.HeapAllocBytes)/(1<<20))
			report.FleetdScale = append(report.FleetdScale, pt)
		}
	}
	if *fleetdRestart > 0 {
		rp, err := runFleetdRestart(s, *fleetdRestart, *fleetdDays, cfg.Seed)
		if err != nil {
			return fmt.Errorf("fleetd_restart: %w", err)
		}
		fmt.Fprintf(os.Stderr, "fleetd_restart: %d homes killed at %d done, replay %s, resume %s (%d finished, %d live, %d restores)\n",
			rp.Homes, rp.KilledAtDone, time.Duration(rp.ReplayNS).Round(time.Microsecond),
			time.Duration(rp.ResumeNS).Round(time.Millisecond), rp.ResumedDone, rp.ResumedLive, rp.Restores)
		report.FleetdRestart = rp
	}

	stats := s.CacheStats()
	report.ADMTrainings = stats.ADMTrainings
	report.CacheEntries = stats.Entries
	report.TotalNS = time.Since(started).Nanoseconds()

	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out == "-" {
		if _, err := os.Stdout.Write(enc); err != nil {
			return err
		}
	} else {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (total %s, %d ADM trainings, %d cache entries)\n",
			*out, time.Duration(report.TotalNS).Round(time.Millisecond), report.ADMTrainings, report.CacheEntries)
	}
	// With the report on stdout, keep the gate's and the comparison's
	// chatter on stderr so JSON consumers see a clean document.
	chatter := io.Writer(os.Stdout)
	if *out == "-" {
		chatter = os.Stderr
	}
	if *compare != "" {
		if err := compareAgainstBaseline(chatter, report, *compare); err != nil {
			return err
		}
	}
	if *chaosRatio > 0 {
		if err := gateChaosRatio(chatter, report, *chaosRatio); err != nil {
			return err
		}
	}
	if *baseline != "" {
		return gateAgainstBaseline(chatter, report, *baseline, *maxRegress)
	}
	return nil
}

// gateChaosRatio fails the run when the warm stream_fleet_chaos series costs
// more than ratio× the warm clean stream_fleet series (plus the absolute
// slack) — the in-run price ceiling on the resilience layer, independent of
// any committed baseline.
func gateChaosRatio(w io.Writer, report Report, ratio float64) error {
	warm := make(map[string]int64, len(report.Experiments))
	for _, m := range report.Experiments {
		warm[m.Name] = m.WarmNS
	}
	clean, okClean := warm["stream_fleet"]
	chaos, okChaos := warm["stream_fleet_chaos"]
	if !okClean || !okChaos {
		return fmt.Errorf("chaos-ratio gate: stream_fleet and stream_fleet_chaos series required")
	}
	limit := int64(float64(clean)*ratio) + regressSlackNS
	status := "ok"
	if chaos > limit {
		status = "FAIL"
	}
	fmt.Fprintf(w, "gate: chaos/clean warm %12s vs %12s (limit %.1fx+slack = %s) %s\n",
		time.Duration(chaos), time.Duration(clean), ratio, time.Duration(limit), status)
	if status == "FAIL" {
		return fmt.Errorf("chaos-ratio gate: warm stream_fleet_chaos %s exceeds %.1fx warm stream_fleet %s",
			time.Duration(chaos), ratio, time.Duration(clean))
	}
	return nil
}

// loadReport reads a committed bench report.
func loadReport(path string) (Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Report{}, fmt.Errorf("baseline: %w", err)
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		return Report{}, fmt.Errorf("baseline %s: %w", path, err)
	}
	return base, nil
}

// fleetdPointName labels a scaling point by its shape — the key both the
// gate and the comparison table match points across reports with. Chaos
// points carry a suffix so they gate against chaos baselines only.
func fleetdPointName(pt FleetdPoint) string {
	name := fmt.Sprintf("fleetd_scale_%dx%dd", pt.Homes, pt.Days)
	if pt.Chaos {
		name += "_chaos"
	}
	return name
}

// compareAgainstBaseline prints the per-series delta table against a prior
// report: warm wall time per experiment series and elapsed time per
// matching fleetd scaling point, each with the speedup factor (old/new, so
// >1 is faster). Purely informational — it never fails the run.
func compareAgainstBaseline(w io.Writer, report Report, path string) error {
	base, err := loadReport(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "compare: this run vs %s (speedup = baseline/current, >1 is faster)\n", path)
	row := func(name string, baseNS, nowNS int64) {
		speed := "      n/a"
		if nowNS > 0 {
			speed = fmt.Sprintf("%8.2fx", float64(baseNS)/float64(nowNS))
		}
		fmt.Fprintf(w, "compare: %-22s %14s -> %-14s %s\n",
			name, time.Duration(baseNS).Round(time.Microsecond), time.Duration(nowNS).Round(time.Microsecond), speed)
	}
	baseWarm := make(map[string]int64, len(base.Experiments))
	for _, m := range base.Experiments {
		baseWarm[m.Name] = m.WarmNS
	}
	seen := make(map[string]bool, len(report.Experiments))
	for _, m := range report.Experiments {
		seen[m.Name] = true
		if want, ok := baseWarm[m.Name]; ok {
			row(m.Name, want, m.WarmNS)
		} else {
			fmt.Fprintf(w, "compare: %-22s new series (warm %s)\n", m.Name, time.Duration(m.WarmNS).Round(time.Microsecond))
		}
	}
	for _, m := range base.Experiments {
		if !seen[m.Name] {
			fmt.Fprintf(w, "compare: %-22s only in baseline (warm %s)\n", m.Name, time.Duration(m.WarmNS).Round(time.Microsecond))
		}
	}
	basePts := make(map[string]int64, len(base.FleetdScale))
	for _, pt := range base.FleetdScale {
		basePts[fleetdPointName(pt)] = pt.ElapsedNS
	}
	for _, pt := range report.FleetdScale {
		name := fleetdPointName(pt)
		if want, ok := basePts[name]; ok {
			row(name, want, pt.ElapsedNS)
		} else {
			fmt.Fprintf(w, "compare: %-22s new point (%s, %.1f homes/s)\n",
				name, time.Duration(pt.ElapsedNS).Round(time.Microsecond), pt.HomesPerSec)
		}
	}
	return nil
}

// regressSlackNS is the absolute slack the perf gate adds on top of the
// relative bound: sub-millisecond warm series (fully cache-hit experiments)
// sit at scheduler-noise scale, where a bare 2× ratio would flake.
const regressSlackNS = 10_000_000

// gateAgainstBaseline fails the run when any warm series — or any fleetd
// scaling point whose (homes, days) shape the baseline also measured —
// regresses by more than maxRegress× its committed baseline (plus the
// absolute slack). Series only present on one side are reported but never
// fail the gate, so the baseline file does not have to move in lockstep
// with new experiments — but both directions are surfaced, so a series
// silently dropped from the bench still leaves a visible trace in the gate
// output.
func gateAgainstBaseline(w io.Writer, report Report, path string, maxRegress float64) error {
	base, err := loadReport(path)
	if err != nil {
		return err
	}
	baseWarm := make(map[string]int64, len(base.Experiments))
	for _, m := range base.Experiments {
		baseWarm[m.Name] = m.WarmNS
	}
	measured := make(map[string]bool, len(report.Experiments))
	var failed []string
	for _, m := range report.Experiments {
		measured[m.Name] = true
		want, ok := baseWarm[m.Name]
		if !ok {
			fmt.Fprintf(w, "gate: %-16s no baseline series, skipped\n", m.Name)
			continue
		}
		limit := int64(float64(want)*maxRegress) + regressSlackNS
		status := "ok"
		if m.WarmNS > limit {
			status = "FAIL"
			failed = append(failed, m.Name)
		}
		fmt.Fprintf(w, "gate: %-16s warm %12s vs baseline %12s (limit %12s) %s\n",
			m.Name, time.Duration(m.WarmNS), time.Duration(want), time.Duration(limit), status)
	}
	for _, m := range base.Experiments {
		if !measured[m.Name] {
			fmt.Fprintf(w, "gate: %-16s in baseline but not measured this run\n", m.Name)
		}
	}
	basePts := make(map[string]int64, len(base.FleetdScale))
	for _, pt := range base.FleetdScale {
		basePts[fleetdPointName(pt)] = pt.ElapsedNS
	}
	for _, pt := range report.FleetdScale {
		name := fleetdPointName(pt)
		want, ok := basePts[name]
		if !ok {
			fmt.Fprintf(w, "gate: %-16s no baseline point, skipped\n", name)
			continue
		}
		limit := int64(float64(want)*maxRegress) + regressSlackNS
		status := "ok"
		if pt.ElapsedNS > limit {
			status = "FAIL"
			failed = append(failed, name)
		}
		fmt.Fprintf(w, "gate: %-16s elapsed %10s vs baseline %12s (limit %12s) %s\n",
			name, time.Duration(pt.ElapsedNS), time.Duration(want), time.Duration(limit), status)
	}
	if len(failed) > 0 {
		return fmt.Errorf("perf gate: %d warm series regressed >%.1fx vs %s: %v",
			len(failed), maxRegress, path, failed)
	}
	fmt.Fprintf(w, "perf gate passed against %s (max regress %.1fx + %s slack)\n",
		path, maxRegress, time.Duration(regressSlackNS))
	return nil
}

// runFleetdScale drives one fleetd scaling point: homes synthetic homes
// admitted to a 4-shard service, each shard running one home per worker,
// to completion. The elapsed clock covers
// admission through fleet-idle; the heap figure is sampled at completion.
// Chaos points layer mixed block-scale fault injection over the same fleet:
// supervised retries resume from in-memory day-boundary checkpoints and
// delay faults plus backoff timers run on a virtual clock, so the point
// measures recovery compute, not sleep.
func runFleetdScale(s *core.Suite, homes, days int, seed uint64, chaos bool) (FleetdPoint, error) {
	jobs, err := s.FleetJobs(scenario.SynthFleet(homes, seed), core.StreamOptions{Days: days})
	if err != nil {
		return FleetdPoint{}, err
	}
	const shards = 4
	var shard fleetd.ShardOptions
	if chaos {
		shard.Recover = true
		shard.Clock = stream.NewVirtualClock()
		shard.Chaos = &stream.FaultConfig{
			Seed: seed, Drop: 0.04, Duplicate: 0.06, Delay: 0.05,
			Corrupt: 0.02, Truncate: 0.02, Disconnect: 0.01,
			MaxDelay: 100 * time.Microsecond,
		}
	}
	svc, err := fleetd.NewService(fleetd.Config{
		Shards: shards,
		Shard:  shard,
	})
	if err != nil {
		return FleetdPoint{}, err
	}
	defer svc.Close(false)
	began := time.Now()
	if err := svc.Add(jobs); err != nil {
		return FleetdPoint{}, err
	}
	svc.WaitIdle()
	elapsed := time.Since(began)
	snap := svc.Snapshot()
	if snap.HomesFailed > 0 {
		return FleetdPoint{}, fmt.Errorf("%d homes failed", snap.HomesFailed)
	}
	if snap.HomesCompleted != int64(homes) {
		return FleetdPoint{}, fmt.Errorf("completed %d of %d homes", snap.HomesCompleted, homes)
	}
	// Single-day homes have no mid-run day boundary to checkpoint at, so
	// only retries are guaranteed; restores additionally need days > 1.
	if chaos && (snap.Retries == 0 || (days > 1 && snap.Restores == 0)) {
		return FleetdPoint{}, fmt.Errorf("chaos fixture inert: %d retries, %d restores", snap.Retries, snap.Restores)
	}
	pt := FleetdPoint{
		Homes:          homes,
		Days:           days,
		Shards:         shards,
		Chaos:          chaos,
		Retries:        snap.Retries,
		Restores:       snap.Restores,
		ElapsedNS:      elapsed.Nanoseconds(),
		Slots:          snap.Slots,
		Events:         snap.SensorEvents + snap.ActionEvents + snap.Verdicts,
		HeapAllocBytes: snap.HeapAllocBytes,
	}
	if secs := elapsed.Seconds(); secs > 0 {
		pt.HomesPerSec = float64(homes) / secs
		pt.DaysPerSec = float64(snap.Days) / secs
		pt.EventsPerSec = float64(pt.Events) / secs
	}
	return pt, nil
}

// runFleetdRestart measures the process-level recovery path: admit homes
// synthetic homes through the durable manifest, drop the service without
// any persistence flush once roughly half the fleet completed, and reboot
// from the same state directory. Replay covers NewService's manifest read
// and re-admission; resume is the catch-up run to fleet-idle. Days is
// floored at 2 so in-flight homes have a day boundary to checkpoint at —
// otherwise the restart would measure only from-scratch reruns.
func runFleetdRestart(s *core.Suite, homes, days int, seed uint64) (*FleetdRestart, error) {
	if days < 2 {
		days = 2
	}
	stateDir, err := os.MkdirTemp("", "shatter-bench-state-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(stateDir)
	cfg := fleetd.Config{
		Shards:   4,
		StateDir: stateDir,
		Shard:    fleetd.ShardOptions{Recover: true},
	}
	svc, err := core.NewFleetService(s, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := svc.AddSpec(fleetd.AddRequest{Synth: homes, Seed: seed, Days: days}); err != nil {
		svc.Close(false)
		return nil, err
	}
	var killedAt int64
	for {
		snap := svc.Snapshot()
		killedAt = snap.HomesCompleted
		if killedAt >= int64(homes)/2 || snap.HomesActive == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	svc.Close(false) // no final flush: the bench's kill -9

	replayStart := time.Now()
	svc2, err := core.NewFleetService(s, cfg)
	if err != nil {
		return nil, err
	}
	defer svc2.Close(false)
	replay := time.Since(replayStart)
	resumedDone, resumedLive := svc2.Resumed()
	resumeStart := time.Now()
	svc2.WaitIdle()
	resume := time.Since(resumeStart)
	snap := svc2.Snapshot()
	if snap.HomesFailed > 0 {
		return nil, fmt.Errorf("%d homes failed after restart", snap.HomesFailed)
	}
	if got := len(svc2.Result().Homes); got != homes {
		return nil, fmt.Errorf("restarted fleet finished %d of %d homes", got, homes)
	}
	return &FleetdRestart{
		Homes:        homes,
		Days:         days,
		KilledAtDone: killedAt,
		ResumedDone:  resumedDone,
		ResumedLive:  resumedLive,
		Restores:     snap.Restores,
		ReplayNS:     replay.Nanoseconds(),
		ResumeNS:     resume.Nanoseconds(),
	}, nil
}

// discard adapts an experiment method to a result-free runner.
func discard[T any](f func() (T, error)) func() error {
	return func() error {
		_, err := f()
		return err
	}
}
