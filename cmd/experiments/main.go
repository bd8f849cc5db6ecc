// Command experiments regenerates every table and figure of the SHATTER
// paper's evaluation (DESIGN.md §4) and prints them in the paper's layout.
//
// Usage:
//
//	experiments [-days N] [-train N] [-seed S] [-workers N] [-quick]
//	            [-only fig3,tableV,...] [-suite A,B,...] [-scenarios list]
//	            [-stream list|N] [-stream-days N] [-stream-mqtt]
//	            [-stream-defend] [-stream-attack]
//	            [-stream-chaos spec] [-stream-retries N] [-stream-failfast]
//	            [-stream-virtual-clock]
//	            [-cpuprofile F] [-memprofile F]
//
// -quick runs a reduced 12-day configuration for a fast smoke pass.
// -workers bounds the experiment worker pool (0 = one per CPU; 1 = fully
// sequential — results are identical either way).
// -suite selects the registry scenarios the paper experiments run over
// (default: the ARAS pair "A,B", reproducing the paper exactly).
// -scenarios runs the full-stack ScenarioSweep over the listed worlds:
// registry IDs ("studio", "family4", ...) and/or procedural homes written
// as "synth:ZxO" or "synth:ZxO@SEED" (e.g. "synth:12x4" is a 12-zone,
// 4-occupant generated home).
// -stream runs the streaming fleet instead of (or alongside) the batch
// experiments: the argument is either a scenario list in the -scenarios
// syntax or a bare home count N (N procedurally generated homes). Each
// home advances one day block at a time through the incremental event core;
// -stream-defend attaches the online detector, -stream-attack injects a
// live SHATTER campaign, and -stream-mqtt routes every home's frames
// through an in-process MQTT broker, where each home's receiver counts the
// frames it takes off the bus.
// -stream-chaos turns on the fault-tolerant supervisor and injects a
// deterministic fault schedule into every home's stream, the same faults
// on the direct path and over the broker. The spec is a
// comma-separated k=v list: drop, dup, delay, corrupt, trunc and disc set
// per-frame fault probabilities (a frame is one home-day; each in [0, 1],
// summing to at most 1); seed picks the schedule; maxdelay bounds injected
// latency (non-negative, duration syntax); clean is the first fault-free
// attempt (e.g. "drop=0.3,dup=0.2,seed=7,maxdelay=1ms"). Failed homes
// retry from their last day-boundary checkpoint, held in memory, up to
// -stream-retries attempts before quarantine; -stream-failfast aborts the
// fleet on the first quarantine instead. -stream-virtual-clock runs chaos
// delays and retry backoff on a virtual clock.
// -cpuprofile / -memprofile write pprof profiles of the selected
// experiments, so performance work on the suite starts from a profile.
package main

import (
	"flag"
	"fmt"
	"os"
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

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	days := fs.Int("days", 30, "trace length in days")
	train := fs.Int("train", 25, "ADM training days")
	seed := fs.Uint64("seed", 20230427, "dataset seed")
	quick := fs.Bool("quick", false, "reduced 12-day run")
	workers := fs.Int("workers", 0, "experiment worker pool (0 = all CPUs, 1 = sequential)")
	only := fs.String("only", "", "comma-separated experiment ids (default all)")
	suiteScen := fs.String("suite", "", "registry scenarios for the paper experiments (default A,B)")
	sweep := fs.String("scenarios", "", "ScenarioSweep worlds: registry IDs and/or synth:ZxO[@SEED]")
	streamArg := fs.String("stream", "", "streaming fleet: scenario list (same syntax as -scenarios) or a bare synth home count")
	streamDays := fs.Int("stream-days", 0, "days each fleet home streams (0 = -days)")
	streamMQTT := fs.Bool("stream-mqtt", false, "route fleet frames through an in-process MQTT broker")
	streamDefend := fs.Bool("stream-defend", false, "attach the online ADM detector to every fleet home")
	streamAttack := fs.Bool("stream-attack", false, "inject a live SHATTER campaign into every fleet home")
	streamChaos := fs.String("stream-chaos", "", "supervised fleet under injected faults: k=v list (drop,dup,delay,corrupt,trunc,disc,seed,maxdelay,clean)")
	streamRetries := fs.Int("stream-retries", 0, "retry budget per failed home (0 = default, negative = no retries)")
	streamFailFast := fs.Bool("stream-failfast", false, "abort the fleet on the first quarantined home")
	streamVirtualClock := fs.Bool("stream-virtual-clock", false, "run chaos delays and retry backoff on a virtual clock (compute-bound, byte-identical results)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile (after a final GC) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stopProfiles()
	cfg := core.SuiteConfig{Days: *days, TrainDays: *train, Seed: *seed, WindowLen: 10, Workers: *workers}
	if *quick {
		cfg.Days, cfg.TrainDays = 12, 9
	}
	for _, id := range strings.Split(*suiteScen, ",") {
		if id = strings.TrimSpace(id); id != "" {
			cfg.Scenarios = append(cfg.Scenarios, id)
		}
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	sweepSpecs, err := scenario.ParseList(*sweep, *seed)
	if err != nil {
		return err
	}
	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(strings.ToLower(id)); id != "" {
			want[id] = true
		}
	}
	sel := func(id string) bool { return len(want) == 0 || want[strings.ToLower(id)] }
	if want["scenarios"] && len(sweepSpecs) == 0 {
		return fmt.Errorf("-only scenarios needs a -scenarios list (e.g. -scenarios \"studio,synth:12x4\")")
	}
	streamSpecs, err := parseStreamSpecs(*streamArg, *seed)
	if err != nil {
		return err
	}
	if want["stream"] && len(streamSpecs) == 0 {
		return fmt.Errorf("-only stream needs a -stream fleet (e.g. -stream 100 or -stream \"A,B,synth:6x2\")")
	}
	var chaos *stream.FaultConfig
	if *streamChaos != "" {
		if chaos, err = parseChaos(*streamChaos); err != nil {
			return err
		}
	}

	started := time.Now()
	fmt.Printf("SHATTER experiment suite (days=%d train=%d seed=%d)\n\n", cfg.Days, cfg.TrainDays, cfg.Seed)
	s, err := core.NewSuite(cfg)
	if err != nil {
		return err
	}

	if sel("fig3") {
		if err := printFig3(s); err != nil {
			return err
		}
	}
	if sel("fig4") {
		if err := printFig4(s); err != nil {
			return err
		}
	}
	if sel("fig5") {
		if err := printFig5(s); err != nil {
			return err
		}
	}
	if sel("fig6") {
		if err := printFig6(s); err != nil {
			return err
		}
	}
	if sel("tableiii") {
		if err := printCaseStudy(s); err != nil {
			return err
		}
	}
	if sel("tableiv") {
		if err := printTableIV(s); err != nil {
			return err
		}
	}
	if sel("tablev") {
		if err := printTableV(s); err != nil {
			return err
		}
	}
	if sel("fig10") {
		if err := printFig10(s); err != nil {
			return err
		}
	}
	if sel("tablevi") {
		if err := printAccess(s, "Table VI — appliance-triggering impact vs zone access", s.TableVI); err != nil {
			return err
		}
	}
	if sel("tablevii") {
		if err := printAccess(s, "Table VII — appliance-triggering impact vs appliance access", s.TableVII); err != nil {
			return err
		}
	}
	if sel("fig11") {
		if err := printFig11(s); err != nil {
			return err
		}
	}
	if sel("testbed") {
		if err := printTestbed(s); err != nil {
			return err
		}
	}
	if len(sweepSpecs) > 0 && sel("scenarios") {
		if err := printScenarioSweep(s, sweepSpecs); err != nil {
			return err
		}
	}
	if len(streamSpecs) > 0 && sel("stream") {
		opts := core.StreamOptions{
			Days: *streamDays, Defend: *streamDefend, Attack: *streamAttack,
			ShardOptions: fleetd.ShardOptions{
				MaxRetries: *streamRetries, FailFast: *streamFailFast,
			},
		}
		if *streamVirtualClock {
			opts.Clock = stream.NewVirtualClock()
		}
		if chaos != nil {
			opts.Chaos, opts.Recover = chaos, true
		}
		if opts.MaxRetries != 0 {
			opts.Recover = true
		}
		if err := printStream(s, streamSpecs, opts, *streamMQTT); err != nil {
			return err
		}
	}
	fmt.Printf("\nall selected experiments done in %s\n", time.Since(started).Round(time.Millisecond))
	return nil
}

// parseChaos resolves the -stream-chaos spec, a comma-separated k=v list
// of fault probabilities and schedule knobs. It enforces the FaultConfig
// contract: every probability finite and in [0, 1], their sum at most 1,
// and a non-negative maxdelay.
func parseChaos(spec string) (*stream.FaultConfig, error) {
	cfg := &stream.FaultConfig{}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		key, val, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("bad -stream-chaos entry %q (want k=v)", entry)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		var err error
		switch key {
		case "seed":
			cfg.Seed, err = strconv.ParseUint(val, 10, 64)
		case "drop":
			cfg.Drop, err = parseProb(val)
		case "dup", "duplicate":
			cfg.Duplicate, err = parseProb(val)
		case "delay":
			cfg.Delay, err = parseProb(val)
		case "corrupt":
			cfg.Corrupt, err = parseProb(val)
		case "trunc", "truncate":
			cfg.Truncate, err = parseProb(val)
		case "disc", "disconnect":
			cfg.Disconnect, err = parseProb(val)
		case "maxdelay":
			cfg.MaxDelay, err = time.ParseDuration(val)
			if err == nil && cfg.MaxDelay < 0 {
				err = fmt.Errorf("negative duration")
			}
		case "clean":
			cfg.CleanAttempt, err = strconv.Atoi(val)
		default:
			return nil, fmt.Errorf("unknown -stream-chaos key %q (known: seed, drop, dup, delay, corrupt, trunc, disc, maxdelay, clean)", key)
		}
		if err != nil {
			return nil, fmt.Errorf("bad -stream-chaos value %q: %v", entry, err)
		}
	}
	// One uniform draw picks the class by cumulative probability, so a sum
	// past 1 would silently starve the later classes. The slack absorbs
	// float rounding of sums that are 1 in decimal (0.1+0.2+0.7).
	if sum := cfg.Drop + cfg.Duplicate + cfg.Delay + cfg.Corrupt + cfg.Truncate + cfg.Disconnect; sum > 1+1e-9 {
		return nil, fmt.Errorf("bad -stream-chaos spec %q: fault probabilities sum to %g, more than 1", spec, sum)
	}
	return cfg, nil
}

// parseProb parses one fault probability: a finite number in [0, 1].
func parseProb(val string) (float64, error) {
	p, err := strconv.ParseFloat(val, 64)
	if err == nil && !(p >= 0 && p <= 1) { // false for NaN and ±Inf too
		err = fmt.Errorf("probability %g outside [0, 1]", p)
	}
	return p, err
}

// parseStreamSpecs resolves the -stream argument: a bare integer N fans out
// N procedurally generated homes with varied shapes; anything else is the
// -scenarios list syntax.
func parseStreamSpecs(arg string, seed uint64) ([]scenario.Spec, error) {
	arg = strings.TrimSpace(arg)
	if arg == "" {
		return nil, nil
	}
	if n, err := strconv.Atoi(arg); err == nil {
		if n < 1 {
			return nil, fmt.Errorf("-stream home count must be positive, got %d", n)
		}
		return scenario.SynthFleet(n, seed), nil
	}
	return scenario.ParseList(arg, seed)
}

func printStream(s *core.Suite, specs []scenario.Spec, opts core.StreamOptions, useMQTT bool) error {
	fmt.Println("== Streaming fleet — incremental event core over the worker pool ==")
	if useMQTT {
		broker, err := mqtt.NewBroker("127.0.0.1:0")
		if err != nil {
			return err
		}
		defer broker.Close()
		opts.Broker = broker.Addr()
		fmt.Printf("transport: MQTT broker %s (per-home topics, receivers count bus frames)\n", broker.Addr())
	} else {
		fmt.Println("transport: direct (in-process sources, no broker)")
	}
	res, err := s.Stream(specs, opts)
	if err != nil {
		return err
	}
	if len(res.Homes) <= 16 {
		fmt.Printf("%-22s %5s %9s %10s %10s %9s %9s %7s\n",
			"home", "days", "slots", "kWh", "cost $", "verdicts", "injected", "caught")
		for _, h := range res.Homes {
			fmt.Printf("%-22s %5d %9d %10.1f %10.2f %9d %9d %7d\n",
				h.ID, h.Days, h.Slots, h.Sim.TotalKWh, h.Sim.TotalCostUSD, h.Verdicts, h.Injected, h.Flagged)
		}
	}
	st := res.Stats
	fmt.Printf("fleet: %d homes, %d days, %d slots, %d events (%d sensor / %d action / %d verdict)\n",
		st.Homes, st.Days, st.Slots, st.Events, st.SensorEvents, st.ActionEvents, st.Verdicts)
	fmt.Printf("energy: %.1f kWh, $%.2f", st.TotalKWh, st.TotalCostUSD)
	if st.Injected > 0 {
		fmt.Printf("; detection: %d/%d injected episodes flagged (%.2f)",
			st.Flagged, st.Injected, float64(st.Flagged)/float64(st.Injected))
	}
	fmt.Println()
	fmt.Printf("throughput: %.1f homes/s, %.0f events/s in %s",
		st.HomesPerSec, st.EventsPerSec, st.Elapsed.Round(time.Millisecond))
	if st.BusFrames > 0 {
		fmt.Printf("; bus: %d frames through the broker", st.BusFrames)
	}
	fmt.Println()
	fmt.Printf("resilience: %d retries, %d checkpoint restores, %d homes quarantined\n",
		st.Retries, st.Restores, st.Quarantined)
	for _, o := range res.Outcomes {
		switch {
		case o.Status == stream.OutcomeQuarantined:
			fmt.Printf("  quarantined %s after %d attempts: %s\n", o.ID, o.Attempts, o.Err)
		case o.Restores > 0:
			fmt.Printf("  restored %s from its day-%d checkpoint (%d attempts, %d restores)\n",
				o.ID, o.CheckpointDay, o.Attempts, o.Restores)
		}
	}
	fmt.Println()
	return nil
}

func printScenarioSweep(s *core.Suite, specs []scenario.Spec) error {
	fmt.Println("== Scenario sweep — full pipeline on arbitrary worlds ==")
	points, err := s.ScenarioSweep(specs)
	if err != nil {
		return err
	}
	fmt.Printf("%-22s %5s %4s %5s %10s %10s %9s %6s %9s %6s %9s\n",
		"scenario", "zones", "occ", "appl", "benign $", "attacked $", "extra $", "det", "injected", "infeas", "t")
	for _, p := range points {
		fmt.Printf("%-22s %5d %4d %5d %10.2f %10.2f %9.2f %6.2f %9d %6d %9s\n",
			p.ScenarioID, p.Zones, p.Occupants, p.Appliances,
			p.BenignUSD, p.AttackedUSD, p.ExtraUSD, p.DetectionRate,
			p.InjectedSlots, p.InfeasibleWindows, p.Elapsed.Round(time.Millisecond))
	}
	stats := s.CacheStats()
	fmt.Printf("cache after sweep: %d ADM trainings, %d artifacts\n\n", stats.ADMTrainings, stats.Entries)
	return nil
}

func printFig3(s *core.Suite) error {
	fmt.Println("== Fig 3 — ASHRAE vs SHATTER control cost ==")
	results, err := s.Fig3()
	if err != nil {
		return err
	}
	for _, r := range results {
		var sumA, sumS float64
		for d := range r.ASHRAE {
			sumA += r.ASHRAE[d]
			sumS += r.SHATTER[d]
		}
		fmt.Printf("House %s: ASHRAE $%.2f/mo, SHATTER $%.2f/mo, savings %.1f%%\n",
			r.House, sumA, sumS, r.SavingsPct)
		fmt.Printf("  daily ASHRAE : %s\n", sparkline(r.ASHRAE))
		fmt.Printf("  daily SHATTER: %s\n", sparkline(r.SHATTER))
	}
	fmt.Println()
	return nil
}

func printFig4(s *core.Suite) error {
	fmt.Println("== Fig 4 — ADM hyperparameter tuning (HAO1) ==")
	results, err := s.Fig4()
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Printf("%s on %s:\n", r.Algorithm, r.Dataset)
		fmt.Printf("  %6s %8s %8s %8s\n", "hyper", "DBI", "SC", "CHI")
		for _, p := range r.Points {
			fmt.Printf("  %6d %8.3f %8.3f %8.1f\n", p.Hyperparameter, p.DaviesBouldin, p.Silhouette, p.CalinskiHara)
		}
	}
	fmt.Println()
	return nil
}

func printFig5(s *core.Suite) error {
	fmt.Println("== Fig 5 — progressive training performance (F1) ==")
	results, err := s.Fig5()
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Printf("%-8s %-8s:", r.Algorithm, r.Dataset)
		for _, p := range r.Points {
			fmt.Printf("  %dd=%.2f", p.TrainDays, p.F1)
		}
		fmt.Println()
	}
	fmt.Println()
	return nil
}

func printFig6(s *core.Suite) error {
	fmt.Println("== Fig 6 — cluster geometry (HAO1-style) ==")
	results, err := s.Fig6()
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Printf("%-8s: clusters=%d hullArea=%.0f noisePruned=%d\n",
			r.Algorithm, r.Stats.Clusters, r.Stats.TotalArea, r.Stats.NoisePruned)
	}
	fmt.Println()
	return nil
}

func printCaseStudy(s *core.Suite) error {
	fmt.Println("== Table III — case study (6:00-6:09 PM) ==")
	cs, err := s.CaseStudy()
	if err != nil {
		return err
	}
	fmt.Printf("day %d, slots %d-%d\n", cs.Day, cs.StartSlot, cs.StartSlot+len(cs.Slots)-1)
	rows := []string{"Actual ", "Greedy ", "SHATTER"}
	for o := 0; o < len(cs.Slots[0].Actual); o++ {
		fmt.Printf("occupant %d:\n", o)
		for ri, name := range rows {
			fmt.Printf("  %s:", name)
			for _, sl := range cs.Slots {
				var z int
				switch ri {
				case 0:
					z = int(sl.Actual[o])
				case 1:
					z = int(sl.Greedy[o])
				default:
					z = int(sl.SHATTER[o])
				}
				fmt.Printf(" %d", z)
			}
			fmt.Println()
		}
		fmt.Printf("  range  :")
		for _, sl := range cs.Slots {
			if sl.StayMin[o] < 0 {
				fmt.Printf(" []")
			} else {
				fmt.Printf(" [%d-%d]", sl.StayMin[o], sl.StayMax[o])
			}
		}
		fmt.Println()
		fmt.Printf("  trigger:")
		for _, sl := range cs.Slots {
			fmt.Printf(" %v", boolMark(sl.Trigger[o]))
		}
		fmt.Println()
	}
	fmt.Printf("window cost: actual %.2f¢, greedy %.2f¢, SHATTER %.2f¢\n\n",
		cs.ActualCostCents, cs.GreedyCostCents, cs.SHATTERCostCents)
	return nil
}

func printTableIV(s *core.Suite) error {
	fmt.Println("== Table IV — ADM performance vs attacker knowledge ==")
	rows, err := s.TableIV()
	if err != nil {
		return err
	}
	fmt.Printf("%-9s %-13s %-6s %6s %6s %6s %6s\n", "ADM", "Knowledge", "Data", "Acc", "Prec", "Rec", "F1")
	for _, r := range rows {
		fmt.Printf("%-9s %-13s %-6s %6.2f %6.2f %6.2f %6.2f\n",
			r.Algorithm, r.Knowledge, r.Dataset,
			r.Metrics.Accuracy(), r.Metrics.Precision(), r.Metrics.Recall(), r.Metrics.F1())
	}
	fmt.Println()
	return nil
}

func printTableV(s *core.Suite) error {
	fmt.Println("== Table V — attack cost: BIoTA vs Greedy vs SHATTER ==")
	ids := s.ScenarioIDs()
	benign, err := s.BenignCosts()
	if err != nil {
		return err
	}
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("House %s $%.2f", id, benign[id])
	}
	fmt.Printf("benign control cost: %s\n", strings.Join(parts, ", "))
	rows, err := s.TableV()
	if err != nil {
		return err
	}
	headFormat := "%-9s %-12s %-13s" + strings.Repeat(" %10s", len(ids)) + strings.Repeat(" %8s", len(ids)) + "\n"
	head := []any{"Framework", "ADM", "Knowledge"}
	for _, id := range ids {
		head = append(head, id+" ($)")
	}
	for _, id := range ids {
		head = append(head, "det"+id)
	}
	fmt.Printf(headFormat, head...)
	rowFormat := "%-9s %-12s %-13s" + strings.Repeat(" %10.2f", len(ids)) + strings.Repeat(" %8.2f", len(ids)) + "\n"
	for _, r := range rows {
		vals := []any{r.Framework, r.ADM, r.Knowledge}
		for _, id := range ids {
			vals = append(vals, r.CostUSD[id])
		}
		for _, id := range ids {
			vals = append(vals, r.DetectionRate[id])
		}
		fmt.Printf(rowFormat, vals...)
	}
	fmt.Println()
	return nil
}

func printFig10(s *core.Suite) error {
	fmt.Println("== Fig 10 — appliance-triggering contribution ==")
	results, err := s.Fig10()
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Printf("House %s: trigger extra $%.2f (+%.1f%% on the non-trigger attack)\n",
			r.House, r.TriggerExtra, r.TriggerPct)
		fmt.Printf("  benign      : %s\n", sparkline(r.Benign))
		fmt.Printf("  w/o trigger : %s\n", sparkline(r.WithoutTrigger))
		fmt.Printf("  with trigger: %s\n", sparkline(r.WithTrigger))
	}
	fmt.Println()
	return nil
}

func printAccess(s *core.Suite, title string, f func() ([]core.AccessRow, error)) error {
	fmt.Println("==", title, "==")
	rows, err := f()
	if err != nil {
		return err
	}
	ids := s.ScenarioIDs()
	for _, r := range rows {
		parts := make([]string, len(ids))
		for i, id := range ids {
			parts[i] = fmt.Sprintf("House %s $%.2f", id, r.ImpactUSD[id])
		}
		fmt.Printf("%-14s %s\n", r.Label, strings.Join(parts, "  "))
	}
	fmt.Println()
	return nil
}

func printFig11(s *core.Suite) error {
	fmt.Println("== Fig 11 — scalability ==")
	a, err := s.Fig11a([]int{4, 6, 8, 10, 12})
	if err != nil {
		return err
	}
	fmt.Println("(a) horizon scaling (joint branch-and-bound):")
	for _, p := range a {
		fmt.Printf("  I=%-3d nodes=%-10d t=%s\n", p.X, p.Nodes, p.Elapsed.Round(time.Microsecond))
	}
	b, err := s.Fig11b([]int{4, 8, 12, 16, 20, 24})
	if err != nil {
		return err
	}
	fmt.Println("(b) zone scaling (windowed DP, lookback 10):")
	for _, p := range b {
		fmt.Printf("  zones=%-3d states=%-8d t=%s\n", p.X, p.Nodes, p.Elapsed.Round(time.Microsecond))
	}
	fmt.Println()
	return nil
}

func printTestbed(s *core.Suite) error {
	fmt.Println("== Section VI — testbed validation ==")
	res, err := s.Testbed()
	if err != nil {
		return err
	}
	fmt.Printf("dynamics identification error: %.2f%% (paper: <2%%)\n", res.FitErrorPct)
	fmt.Printf("benign energy %.1f Wh, attacked %.1f Wh, increase %.1f%% (paper: 78%%)\n",
		res.Benign.EnergyWh, res.Attacked.EnergyWh, res.IncreasePct)
	fmt.Printf("worst occupied-zone excursion: benign %.2f°F, attacked %.2f°F\n\n",
		res.Benign.MaxRiseF, res.Attacked.MaxRiseF)
	return nil
}

func sparkline(xs []float64) string {
	if len(xs) == 0 {
		return ""
	}
	marks := []rune("▁▂▃▄▅▆▇█")
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	var b strings.Builder
	for _, x := range xs {
		i := 0
		if hi > lo {
			i = int((x - lo) / (hi - lo) * float64(len(marks)-1))
		}
		b.WriteRune(marks[i])
	}
	return fmt.Sprintf("%s  [min $%.2f max $%.2f]", b.String(), lo, hi)
}

func boolMark(v bool) string {
	if v {
		return "T"
	}
	return "f"
}
