// Command fleetd runs and administers the sharded fleet service: a
// long-running runtime that multiplexes thousands of streaming smart homes
// over a small worker pool per shard, with an MQTT control plane and a live
// metrics feed.
//
// Serve mode starts an in-process MQTT broker, wires the service's control
// plane to it, optionally admits an initial fleet, and prints metrics
// snapshots until an admin stop request (or SIGINT/SIGTERM) shuts it down:
//
//	fleetd serve [-listen addr] [-shards N] [-workers N] [-max-resident N]
//	             [-state-dir D] [-mqtt-frames] [-retries N]
//	             [-synth N] [-scenarios list] [-stream-days N]
//	             [-days N] [-train N] [-seed S] [-defend] [-attack]
//	             [-metrics-every D] [-print-every D] [-exit-when-idle]
//	             [-result-json F] [-broker-chaos SCHED] [-progress-deadline D]
//
// With -state-dir the service keeps one durable store, D/fleet.manifest: a
// journal of every admitted fleet, admin mutation, day-boundary checkpoint
// and finished home. Restarting the same command after a crash (even
// kill -9) replays the manifest and resumes every in-flight home from its
// newest checkpoint, producing the same per-home results as an
// uninterrupted run. While it runs the service holds a lock on
// D/fleet.lock, so a second serve on the same D fails at once; the kernel
// drops the lock when the process dies.
//
// -progress-deadline D bounds each -mqtt-frames home's wait for its next
// day frame: a longer wait fails the attempt (a watchdog trip) and the home
// retries from its last checkpoint. Supervised services default it to 10s.
//
// The admin verbs speak to a running service over its broker:
//
//	fleetd status    -broker addr             live metrics + shard gauges
//	fleetd watch     -broker addr [-n N]      stream N metrics snapshots
//	fleetd add       -broker addr -synth N | -scenarios list
//	                 [-stream-days N] [-seed S] [-defend] [-attack] [-prefix P]
//	fleetd pause     -broker addr -home ID
//	fleetd resume    -broker addr -home ID
//	fleetd remove    -broker addr -home ID
//	fleetd drain     -broker addr -shard I
//	fleetd rehydrate -broker addr -shard I
//	fleetd stop      -broker addr
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/acyd-lab/shatter/internal/core"
	"github.com/acyd-lab/shatter/internal/fleetd"
	"github.com/acyd-lab/shatter/internal/mqtt"
	"github.com/acyd-lab/shatter/internal/stream"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fleetd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: fleetd <serve|status|watch|add|pause|resume|remove|drain|rehydrate|stop> [flags]")
	}
	verb, rest := args[0], args[1:]
	switch verb {
	case "serve":
		return serve(rest)
	case "status", "watch", "add", "pause", "resume", "remove", "drain", "rehydrate", "stop":
		return admin(verb, rest)
	}
	return fmt.Errorf("unknown command %q (want serve, status, watch, add, pause, resume, remove, drain, rehydrate, or stop)", verb)
}

func serve(args []string) error {
	fs := flag.NewFlagSet("fleetd serve", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:0", "broker listen address (the printed address is the control plane)")
	shards := fs.Int("shards", 2, "shard count")
	workers := fs.Int("workers", 0, "workers per shard (0 = one per CPU)")
	maxResident := fs.Int("max-resident", 0, "admission window: live pipelines per shard (0 = default 4096)")
	stateDir := fs.String("state-dir", "", "durable state directory holding the fleet manifest (admissions, mutations, checkpoints, results); a restart with the same flags resumes the fleet")
	resultJSON := fs.String("result-json", "", "write per-home fleet results to this file (JSON) at shutdown")
	brokerChaos := fs.String("broker-chaos", "", "broker outage schedule: every=DUR,down=DUR[,count=N][,seed=S]")
	progressDeadline := fs.Duration("progress-deadline", 0, "stall bound for -mqtt-frames homes: fail an attempt that waits longer than this for its next day frame (0 = 10s when supervised, else forever)")
	mqttFrames := fs.Bool("mqtt-frames", false, "route every home's sensor frames through the broker too")
	retries := fs.Int("retries", 0, "per-home retry budget (enables supervision when > 0)")
	synth := fs.Int("synth", 0, "admit this many synthetic homes at startup")
	scenarios := fs.String("scenarios", "", "admit these scenarios at startup (registry IDs and/or synth:ZxO[@SEED])")
	streamDays := fs.Int("stream-days", 0, "days each admitted home streams (0 = -days)")
	days := fs.Int("days", 12, "suite trace length in days")
	train := fs.Int("train", 9, "ADM training days (for -defend/-attack fleets)")
	seed := fs.Uint64("seed", 20230427, "dataset seed")
	defend := fs.Bool("defend", false, "attach the online detector to admitted homes")
	attack := fs.Bool("attack", false, "inject a live SHATTER campaign into admitted homes")
	metricsEvery := fs.Duration("metrics-every", 2*time.Second, "metrics publish cadence on fleet/metrics")
	printEvery := fs.Duration("print-every", 5*time.Second, "local metrics print cadence (0 disables)")
	exitWhenIdle := fs.Bool("exit-when-idle", false, "shut down once every admitted home finishes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	broker, err := mqtt.NewBroker(*listen)
	if err != nil {
		return err
	}
	defer broker.Close()
	fmt.Printf("fleetd: broker %s (admin fleet/admin/+, metrics %s)\n", broker.Addr(), fleetd.MetricsTopic)

	cfg := core.SuiteConfig{Days: *days, TrainDays: *train, Seed: *seed, WindowLen: 10, Workers: *workers}
	if err := cfg.Validate(); err != nil {
		return err
	}
	suite, err := core.NewSuite(cfg)
	if err != nil {
		return err
	}
	fcfg := fleetd.Config{
		Shards: *shards,
		Shard: fleetd.ShardOptions{
			Workers:          *workers,
			MaxResident:      *maxResident,
			Recover:          *retries > 0 || *stateDir != "",
			MaxRetries:       *retries,
			ProgressDeadline: *progressDeadline,
		},
		Broker:       broker.Addr(),
		StateDir:     *stateDir,
		MetricsEvery: *metricsEvery,
	}
	if *mqttFrames {
		// A broker restart fails a home's attempt; supervision retries it.
		fcfg.Shard.Broker = broker.Addr()
	}
	svc, err := core.NewFleetService(suite, fcfg)
	if err != nil {
		return err
	}
	persist := *stateDir != ""
	defer svc.Close(persist)

	if resumedDone, resumedLive := svc.Resumed(); resumedDone+resumedLive > 0 {
		// The manifest already names the fleet; admitting the startup fleet
		// again would double every home.
		fmt.Printf("fleetd: resuming fleet from manifest (%d finished, %d live)\n", resumedDone, resumedLive)
	} else if *synth > 0 || *scenarios != "" {
		req := fleetd.AddRequest{
			Synth: *synth, Seed: *seed, Days: *streamDays,
			Defend: *defend, Attack: *attack,
		}
		for _, entry := range strings.Split(*scenarios, ",") {
			if entry = strings.TrimSpace(entry); entry != "" {
				req.Scenarios = append(req.Scenarios, entry)
			}
		}
		n, err := svc.AddSpec(req)
		if err != nil {
			return err
		}
		fmt.Printf("fleetd: admitted %d homes\n", n)
	}

	if *brokerChaos != "" {
		sched, err := parseOutageSchedule(*brokerChaos)
		if err != nil {
			return err
		}
		outages := stream.StartBrokerOutages(broker, sched, nil)
		defer outages.Stop()
	}

	idle := make(chan struct{})
	if *exitWhenIdle {
		go func() {
			svc.WaitIdle()
			close(idle)
		}()
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	var tick <-chan time.Time
	if *printEvery > 0 {
		t := time.NewTicker(*printEvery)
		defer t.Stop()
		tick = t.C
	}
	finish := func() error {
		printSnapshot(svc.Snapshot())
		return writeFleetResult(*resultJSON, svc)
	}
	for {
		select {
		case <-tick:
			printSnapshot(svc.Snapshot())
		case <-idle:
			fmt.Println("fleetd: fleet idle, shutting down")
			return finish()
		case s := <-sig:
			fmt.Printf("fleetd: %v, shutting down (persist=%v)\n", s, persist)
			return finish()
		case <-svc.Done():
			fmt.Println("fleetd: stop requested, shutting down")
			return finish()
		}
	}
}

// parseOutageSchedule parses the -broker-chaos grammar:
// every=DUR,down=DUR[,count=N][,seed=S].
func parseOutageSchedule(s string) (stream.OutageSchedule, error) {
	var sched stream.OutageSchedule
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return sched, fmt.Errorf("broker-chaos: %q is not key=value", part)
		}
		var err error
		switch key {
		case "every":
			sched.Every, err = time.ParseDuration(val)
		case "down":
			sched.Down, err = time.ParseDuration(val)
		case "count":
			sched.Count, err = strconv.Atoi(val)
		case "seed":
			sched.Seed, err = strconv.ParseUint(val, 10, 64)
		default:
			return sched, fmt.Errorf("broker-chaos: unknown key %q", key)
		}
		if err != nil {
			return sched, fmt.Errorf("broker-chaos: %s: %w", key, err)
		}
	}
	if sched.Every <= 0 || sched.Down <= 0 {
		return sched, fmt.Errorf("broker-chaos: every and down are required (got %q)", s)
	}
	return sched, nil
}

// writeFleetResult dumps the per-home results as JSON — stream-time outcomes
// only, no wall-clock fields, so a resumed run's file is byte-comparable to
// an uninterrupted run's.
func writeFleetResult(path string, svc *fleetd.Service) error {
	if path == "" {
		return nil
	}
	fr := svc.Result()
	data, err := json.MarshalIndent(fr.Homes, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// admin runs one control-plane verb against a running service.
func admin(verb string, args []string) error {
	fs := flag.NewFlagSet("fleetd "+verb, flag.ContinueOnError)
	brokerAddr := fs.String("broker", "", "broker address of the running service (required)")
	home := fs.String("home", "", "home ID (pause/resume/remove)")
	shard := fs.Int("shard", -1, "shard index (drain/rehydrate)")
	synth := fs.Int("synth", 0, "add: synthetic home count")
	scenarios := fs.String("scenarios", "", "add: scenario list (registry IDs and/or synth:ZxO[@SEED])")
	streamDays := fs.Int("stream-days", 0, "add: days per home (0 = service default)")
	seed := fs.Uint64("seed", 0, "add: dataset seed (0 = service default)")
	defend := fs.Bool("defend", false, "add: attach the online detector")
	attack := fs.Bool("attack", false, "add: inject a live SHATTER campaign")
	prefix := fs.String("prefix", "", "add: ID prefix so repeated adds stay unique")
	count := fs.Int("n", 3, "watch: snapshots to print before exiting")
	timeout := fs.Duration("timeout", 30*time.Second, "request timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *brokerAddr == "" {
		return fmt.Errorf("fleetd %s: -broker is required", verb)
	}
	a, err := fleetd.NewAdmin(*brokerAddr)
	if err != nil {
		return err
	}
	defer a.Close()
	a.Timeout = *timeout
	needHome := func() error {
		if *home == "" {
			return fmt.Errorf("fleetd %s: -home is required", verb)
		}
		return nil
	}
	switch verb {
	case "status":
		snap, err := a.Status()
		if err != nil {
			return err
		}
		printSnapshot(snap)
	case "watch":
		feed, err := a.Watch()
		if err != nil {
			return err
		}
		for i := 0; i < *count; i++ {
			snap, ok := <-feed
			if !ok {
				return fmt.Errorf("fleetd watch: metrics feed closed")
			}
			printSnapshot(snap)
		}
	case "add":
		req := fleetd.AddRequest{
			Synth: *synth, Seed: *seed, Days: *streamDays,
			Defend: *defend, Attack: *attack, Prefix: *prefix,
		}
		for _, entry := range strings.Split(*scenarios, ",") {
			if entry = strings.TrimSpace(entry); entry != "" {
				req.Scenarios = append(req.Scenarios, entry)
			}
		}
		n, err := a.Add(req)
		if err != nil {
			return err
		}
		fmt.Printf("added %d homes\n", n)
	case "pause":
		if err := needHome(); err != nil {
			return err
		}
		if err := a.Pause(*home); err != nil {
			return err
		}
		fmt.Printf("paused %s\n", *home)
	case "resume":
		if err := needHome(); err != nil {
			return err
		}
		if err := a.Resume(*home); err != nil {
			return err
		}
		fmt.Printf("resumed %s\n", *home)
	case "remove":
		if err := needHome(); err != nil {
			return err
		}
		if err := a.Remove(*home); err != nil {
			return err
		}
		fmt.Printf("removed %s\n", *home)
	case "drain":
		if err := a.Drain(*shard); err != nil {
			return err
		}
		fmt.Printf("drained shard %d\n", *shard)
	case "rehydrate":
		if err := a.Rehydrate(*shard); err != nil {
			return err
		}
		fmt.Printf("rehydrated shard %d\n", *shard)
	case "stop":
		if err := a.Stop(); err != nil {
			return err
		}
		fmt.Println("stop acknowledged")
	}
	return nil
}

// printSnapshot renders one metrics document for humans.
func printSnapshot(s fleetd.Snapshot) {
	up := time.Duration(s.UptimeNS).Round(time.Millisecond)
	fmt.Printf("[%s] homes %d active / %d done / %d failed / %d removed of %d; %d days, %d slots\n",
		up, s.HomesActive, s.HomesCompleted, s.HomesFailed, s.HomesRemoved, s.HomesAdded, s.Days, s.Slots)
	fmt.Printf("  throughput: %.1f homes/s, %.1f days/s, %.0f events/s; heap %.1f MiB, %d goroutines\n",
		s.HomesPerSec, s.DaysPerSec, s.EventsPerSec, float64(s.HeapAllocBytes)/(1<<20), s.Goroutines)
	if s.BusFrames > 0 {
		fmt.Printf("  bus: %d day frames received\n", s.BusFrames)
	}
	if s.Verdicts > 0 {
		fmt.Printf("  detection: %d verdicts (%d anomalous)\n", s.Verdicts, s.Anomalies)
	}
	if s.Retries > 0 || s.Restores > 0 || s.Checkpoints > 0 || s.WatchdogTrips > 0 || s.JournalErrors > 0 {
		fmt.Printf("  resilience: %d retries, %d restores, %d checkpoints, %d watchdog trips, %d journal errors\n",
			s.Retries, s.Restores, s.Checkpoints, s.WatchdogTrips, s.JournalErrors)
	}
	for _, sh := range s.Shards {
		fmt.Printf("  shard %d: %d pending, %d resident (%d ready, %d running, %d paused), %d done, %d failed, ~%.1f MiB%s\n",
			sh.Shard, sh.Pending, sh.Resident, sh.Ready, sh.Running, sh.Paused, sh.Done, sh.Failed,
			float64(sh.ApproxHeapBytes)/(1<<20), drainedMark(sh.Drained))
	}
}

func drainedMark(d bool) string {
	if d {
		return " [drained]"
	}
	return ""
}
