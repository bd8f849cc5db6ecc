package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/acyd-lab/shatter/internal/core"
	"github.com/acyd-lab/shatter/internal/fleetd"
	"github.com/acyd-lab/shatter/internal/hvac"
	"github.com/acyd-lab/shatter/internal/stream"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	candidates := []float64{50, 90, 99}
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99},
	} {
		if got := highestSupported(tc.n, candidates); got != tc.want {
			t.Errorf("highestSupported(%d) = p%g, want p%g", tc.n, got, tc.want)
		}
	}
	if got := minSamples(); got != 100 {
		t.Errorf("minSamples() = %d, want 100 (p90 needs 10 samples beyond it)", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := percentile(xs, 90); got != 90 || beyond(len(xs), 90) != 10 {
		t.Errorf("p90 of 1..100 = %v with %d beyond, want 90 with 10", got, beyond(len(xs), 90))
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestOutputMismatchCountsAsFailure(t *testing.T) {
	want := []core.SweepPoint{
		{ScenarioID: "a", BenignUSD: 10, AttackedUSD: 12, ExtraUSD: 2, DetectionRate: 0.5},
		{ScenarioID: "b", BenignUSD: 20, AttackedUSD: 21, ExtraUSD: 1},
	}
	got := append([]core.SweepPoint(nil), want...)
	got[0].Elapsed = time.Second // wall clock is not part of the check
	if n := checkSweep(got, want); n != 0 {
		t.Fatalf("identical sweep: %d failures", n)
	}
	got[1].AttackedUSD++
	if n := checkSweep(got, want); n != 1 {
		t.Errorf("one changed bill: %d failures, want 1", n)
	}
	if n := checkSweep(got[:1], want[:1]); n != 0 {
		t.Errorf("prefix: %d failures", n)
	}
	if n := checkSweep(got[:1], want); n != 1 {
		t.Errorf("missing home: %d failures, want 1", n)
	}

	stream1 := stream.FleetResult{
		Homes: []stream.HomeResult{
			{ID: "a", Injected: 4, Flagged: 2, Sim: hvac.Result{TotalCostUSD: 12}},
			{ID: "b", Sim: hvac.Result{TotalCostUSD: 21}},
		},
		Outcomes: []stream.HomeOutcome{{ID: "a", Status: stream.OutcomeCompleted}, {ID: "b", Status: stream.OutcomeCompleted}},
	}
	if n := checkAttacked(stream1, want); n != 0 {
		t.Fatalf("streamed ≡ batch: %d failures", n)
	}
	stream1.Homes[0].Flagged = 1
	if n := checkAttacked(stream1, want); n != 1 {
		t.Errorf("changed detection rate: %d failures, want 1", n)
	}

	ref := stream.FleetResult{
		Homes:    []stream.HomeResult{{ID: "a", Days: 4}, {ID: "b", Days: 4}},
		Outcomes: []stream.HomeOutcome{{ID: "a"}, {ID: "b"}},
	}
	svc := stream.FleetResult{
		Homes:    []stream.HomeResult{{ID: "a", Days: 4}, {ID: "b", Days: 4}},
		Outcomes: []stream.HomeOutcome{{ID: "a", Status: stream.OutcomeCompleted, Attempts: 1}, {ID: "b", Status: stream.OutcomeCompleted, Attempts: 1}},
	}
	if n := checkWire(svc, ref, fleetd.Snapshot{}); n != 0 {
		t.Fatalf("service ≡ oracle: %d failures", n)
	}
	if n := checkWire(svc, ref, fleetd.Snapshot{WatchdogTrips: 1}); n != 1 {
		t.Errorf("watchdog trip: %d failures, want 1", n)
	}
	svc.Outcomes[1].Attempts = 2
	svc.Homes[0].Slots = 1
	if n := checkWire(svc, ref, fleetd.Snapshot{}); n != 2 {
		t.Errorf("retried home and changed result: %d failures, want 2", n)
	}
}

// contract loads the metric names BENCHMARK.json promises.
func contract(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func checkNames(t *testing.T, label string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %s missing", label, name)
		} else if m.Unit != unit {
			t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", label, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not in BENCHMARK.json", label, name)
		}
	}
}

// tiny smoke-runs with three homes, one pass and a two-home traced sample.
func tiny(t *testing.T, workload string) options {
	return options{workload: workload, seed: 7, seconds: time.Millisecond, scratch: t.TempDir(), minSamples: 1, homes: 3, sample: 2}
}

func TestWorkloadsSmoke(t *testing.T) {
	endToEnd, _ := contract(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var out bytes.Buffer
			res, err := timed(&out, tiny(t, w.name), w)
			if err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 3 {
				t.Fatalf("result %+v\n%s", res, out.String())
			}
			checkNames(t, w.name, res.Metrics, endToEnd)
			for name, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}
		})
	}
}

func TestTracedSmoke(t *testing.T) {
	_, perLayer := contract(t)
	var out bytes.Buffer
	res, err := traced(&out, tiny(t, "fleetd_wire"))
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != 6 {
		t.Fatalf("result %+v\n%s", res, out.String())
	}
	checkNames(t, "traced", res.Metrics, perLayer)
	for _, label := range []string{"analysis", "attacked_stream", "fleetd_wire"} {
		if !strings.Contains(out.String(), label+": remainder ") {
			t.Errorf("no attribution remainder line for %s:\n%s", label, out.String())
		}
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "analysis", "-trace", "2"},
		{"-workload", "analysis", "-seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q, want a failure and no output", args, code, stdout.String())
		}
	}
}
