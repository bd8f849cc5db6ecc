// Command perfbench is the repository's benchmark. It drives two
// closed-loop workloads through the program's public entry points —
// core.Suite.ScenarioSweep (analysis) and a durable core.NewFleetService
// over an in-process MQTT broker (fleetd_wire) — checks every output, and
// prints the end-to-end metrics. With -trace 1 it instead builds the
// per-layer ledger: a single-worker replay of each workload's pipeline on a
// sample of its cohort, plus the attacked, defended stream of the analysed
// sample, timing the calls into every layer's public functions (see
// README.md).
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench -workload analysis|fleetd_wire -seed N
//	          -seconds S -trace 0|1 [-scratch DIR]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// scratch holds the fleet service's state directories.
	scratch string
	// minSamples is the fewest per-home latency samples a timed run takes.
	minSamples int
	// homes and sample override the cohort and traced-sample sizes; tests
	// set them to smoke-run tiny cohorts, zero keeps each workload's own.
	homes, sample int
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	stampEnv(stdout, o)
	var res result
	if o.trace {
		res, err = traced(stdout, o)
	} else {
		res, err = timed(stdout, o, w)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer ledger instead of the timed workload")
	scratch := fs.String("scratch", ".bench_build/scratch", "directory for fleet state directories")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *seconds <= 0 {
		return options{}, fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	return options{
		workload:   *workload,
		seed:       *seed,
		seconds:    time.Duration(*seconds * float64(time.Second)),
		trace:      *trace == 1,
		scratch:    *scratch,
		minSamples: minSamples(),
	}, nil
}

// stampEnv prints the run environment, so every output names the machine
// and inputs its numbers came from.
func stampEnv(w io.Writer, o options) {
	cohorts := make(map[string]string)
	for _, wl := range workloads {
		cohorts[wl.name] = fmt.Sprintf("%d homes x %d days (traced sample %d)", wl.cohort(o), wl.days, wl.sample(o))
	}
	env := map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"workers":    workers(),
		"seed":       o.seed,
		"workload":   o.workload,
		"trace":      o.trace,
		"seconds":    o.seconds.Seconds(),
		"cohorts":    cohorts,
	}
	line, _ := json.Marshal(env) // map of plain values: cannot fail
	fmt.Fprintf(w, "env %s\n", line)
}

// workers is the pool width every workload runs at: one per CPU.
func workers() int { return runtime.NumCPU() }

// cpuModel reads the CPU model name on Linux; elsewhere it is unknown.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sortedKeys lists a metric map's names in order, for stable printing.
func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
