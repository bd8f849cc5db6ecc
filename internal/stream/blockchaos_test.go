package stream_test

import (
	"os"
	"testing"
	"time"

	"github.com/acyd-lab/shatter/internal/fleetd"
	"github.com/acyd-lab/shatter/internal/mqtt"
	"github.com/acyd-lab/shatter/internal/stream"
)

// goldenJobs builds the registry-golden fleet the chaos equivalence tests
// run: named scenarios with pinned seeds, so the clean baseline is a
// stable fixture rather than a synthetic one.
func goldenJobs(t *testing.T, days int) []stream.Job {
	t.Helper()
	specs := registrySpecs(t, "B", "studio", "family4", "nightshift")
	jobs := make([]stream.Job, len(specs))
	for i, sp := range specs {
		jobs[i] = specJob(sp, days, uint64(900+i))
	}
	return jobs
}

// TestFleetChaosThreeLegEquivalence is the per-class equivalence lock on
// the registry goldens: for every fault class, a supervised block-framed
// chaos run and the clean unsupervised baseline must agree on every
// per-home result and deterministic aggregate — chaos changes nothing but
// the resilience counters. (The name predates the retirement of the
// per-slot JSON leg.) CHAOS_CLASS narrows the sweep to one class (the CI
// matrix drives it).
func TestFleetChaosThreeLegEquivalence(t *testing.T) {
	const days = 2
	jobs := goldenJobs(t, days)
	clean, err := fleetd.RunFleet(jobs, fleetd.ShardOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	only := os.Getenv("CHAOS_CLASS")
	for name, cfg := range blockChaosClasses() {
		if only != "" && only != name {
			continue
		}
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			got, err := fleetd.RunFleet(jobs, fleetd.ShardOptions{
				Workers: 2, Recover: true, Chaos: &cfg,
				RetryBackoff: mqtt.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			if got.Stats.Quarantined != 0 {
				t.Fatalf("recoverable chaos quarantined %d homes: %+v", got.Stats.Quarantined, got.Outcomes)
			}
			checkSameHomes(t, got, clean)
			if name != "delay" && got.Stats.Retries == 0 {
				t.Fatalf("%s: chaos caused no retries", name)
			}
		})
	}
}

// TestFleetChaosThreeLegEquivalenceMQTT repeats the lock over a real broker
// for the mixed class: the block-framed chaos run and the clean baseline
// must coincide when every fault class is in play at once on the wire.
func TestFleetChaosThreeLegEquivalenceMQTT(t *testing.T) {
	const days = 2
	jobs := goldenJobs(t, days)
	clean, err := fleetd.RunFleet(jobs, fleetd.ShardOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	broker, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()
	cfg := blockChaosClasses()["mixed"]
	got, err := fleetd.RunFleet(jobs, fleetd.ShardOptions{
		Workers: 2, Broker: broker.Addr(), Recover: true, Chaos: &cfg,
		RetryBackoff:     mqtt.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
		ProgressDeadline: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Quarantined != 0 {
		t.Fatalf("recoverable chaos quarantined %d homes: %+v", got.Stats.Quarantined, got.Outcomes)
	}
	checkSameHomes(t, got, clean)
	if got.Stats.Retries == 0 {
		t.Fatalf("mixed mqtt chaos too tame: %d retries", got.Stats.Retries)
	}
}

// TestFleetChaosVirtualClock: under a VirtualClock, a mixed-chaos fleet is
// byte-identical across worker counts and identical to the same run under
// real time — retries, restores, outcomes and all — while the clock records
// the virtual waits the run skipped. This is what makes chaos benchmarks
// compute-bound.
func TestFleetChaosVirtualClock(t *testing.T) {
	jobs := chaosJobs(4, 2)
	cfg := blockChaosClasses()["mixed"]
	// Real backoff sizes so skipping them is observable in virtual time.
	backoff := mqtt.Backoff{Base: 20 * time.Millisecond, Max: 100 * time.Millisecond}
	run := func(workers int, clock stream.Clock) stream.FleetResult {
		t.Helper()
		got, err := fleetd.RunFleet(jobs, fleetd.ShardOptions{
			Workers: workers, Recover: true, Chaos: &cfg, Clock: clock,
			RetryBackoff: backoff,
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	vc1, vc8 := stream.NewVirtualClock(), stream.NewVirtualClock()
	seq := run(1, vc1)
	par := run(8, vc8)
	real := run(2, nil)
	sameOutcomes := func(a, b stream.FleetResult, label string) {
		t.Helper()
		checkDeterministic(t, a, b)
		for i := range a.Outcomes {
			x, y := a.Outcomes[i], b.Outcomes[i]
			x.Duration, y.Duration = 0, 0
			if x != y {
				t.Fatalf("%s: outcome %d diverges:\n%+v\nvs\n%+v", label, i, x, y)
			}
		}
	}
	sameOutcomes(seq, par, "virtual workers 1 vs 8")
	sameOutcomes(seq, real, "virtual vs real clock")
	if seq.Stats.Retries == 0 {
		t.Fatalf("fixture too tame: %+v", seq.Stats)
	}
	if vc1.Advanced() == 0 || vc8.Advanced() == 0 {
		t.Fatalf("virtual clocks recorded no waits: %s, %s", vc1.Advanced(), vc8.Advanced())
	}
	// Virtual waits are schedule-determined, so both worker counts skipped
	// the same amount of virtual time.
	if vc1.Advanced() != vc8.Advanced() {
		t.Fatalf("virtual waits diverge across worker counts: %s vs %s", vc1.Advanced(), vc8.Advanced())
	}
}
