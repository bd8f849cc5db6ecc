// The fleet-level tests run as an external test package: they drive
// fleetd.RunFleet, the one fleet supervisor, over this package's sources
// and homes.
package stream_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/acyd-lab/shatter/internal/adm"
	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/fleetd"
	"github.com/acyd-lab/shatter/internal/hvac"
	"github.com/acyd-lab/shatter/internal/mqtt"
	"github.com/acyd-lab/shatter/internal/scenario"
	"github.com/acyd-lab/shatter/internal/stream"
)

// specJob builds a fleet job that streams a scenario spec's world for the
// given number of days. Construction happens inside Open, on the worker.
func specJob(sp scenario.Spec, days int, seed uint64) stream.Job {
	return stream.Job{ID: sp.ID, Open: func() (stream.Source, *stream.Home, error) {
		house, err := sp.Build()
		if err != nil {
			return nil, nil, err
		}
		gen, err := aras.NewGenerator(house, sp.GeneratorConfig(days, seed))
		if err != nil {
			return nil, nil, err
		}
		h, err := stream.NewHome(stream.HomeConfig{
			ID:      sp.ID,
			House:   house,
			Params:  hvac.DefaultParams(),
			Pricing: hvac.DefaultPricing(),
		})
		if err != nil {
			return nil, nil, err
		}
		return stream.NewGeneratorSource(sp.ID, gen), h, nil
	}}
}

// registrySpecs resolves registry IDs to specs, failing the test on unknowns.
func registrySpecs(t *testing.T, ids ...string) []scenario.Spec {
	t.Helper()
	specs := make([]scenario.Spec, len(ids))
	for i, id := range ids {
		sp, ok := scenario.Get(id)
		if !ok {
			t.Fatalf("unknown scenario %q", id)
		}
		specs[i] = sp
	}
	return specs
}

// checkDeterministic compares two fleet results field-by-field, ignoring
// the wall-clock stats.
func checkDeterministic(t *testing.T, a, b stream.FleetResult) {
	t.Helper()
	if len(a.Homes) != len(b.Homes) {
		t.Fatalf("%d vs %d home results", len(a.Homes), len(b.Homes))
	}
	for i := range a.Homes {
		got, want := a.Homes[i], b.Homes[i]
		if got.ID != want.ID || got.Days != want.Days || got.Slots != want.Slots ||
			got.SensorEvents != want.SensorEvents || got.ActionEvents != want.ActionEvents ||
			got.Verdicts != want.Verdicts || got.Anomalies != want.Anomalies ||
			got.Injected != want.Injected || got.Flagged != want.Flagged ||
			got.DetectedDays != want.DetectedDays ||
			got.Sim.TotalKWh != want.Sim.TotalKWh || got.Sim.TotalCostUSD != want.Sim.TotalCostUSD {
			t.Fatalf("home %s diverges across worker counts:\n%+v\nvs\n%+v", got.ID, got, want)
		}
	}
	zeroClock := func(s stream.FleetStats) stream.FleetStats {
		s.Elapsed, s.HomesPerSec, s.EventsPerSec, s.BusFrames = 0, 0, 0, 0
		return s
	}
	if zeroClock(a.Stats) != zeroClock(b.Stats) {
		t.Fatalf("aggregate stats diverge:\n%+v\nvs\n%+v", a.Stats, b.Stats)
	}
}

// TestRunFleetDeterministicWorkers pins Workers=1 ≡ Workers=N over a mixed
// registry fleet that includes a defended, attacked home.
func TestRunFleetDeterministicWorkers(t *testing.T) {
	const days = 2
	jobs := []stream.Job{}
	for _, sp := range registrySpecs(t, "B", "studio", "family4", "nightshift") {
		jobs = append(jobs, specJob(sp, days, 99))
	}
	// House A streams defended: the detector runs online over the frames.
	tr, model := stream.ExportTestWorld(t, "A", 4, 2)
	jobs = append(jobs, stream.Job{ID: "A-defended", Open: func() (stream.Source, *stream.Home, error) {
		h, err := stream.NewHome(stream.HomeConfig{
			ID:       "A-defended",
			House:    tr.House,
			Params:   hvac.DefaultParams(),
			Pricing:  hvac.DefaultPricing(),
			Defender: model,
		})
		if err != nil {
			return nil, nil, err
		}
		return stream.NewTraceSource("A-defended", tr), h, nil
	}})

	seq, err := fleetd.RunFleet(jobs, fleetd.ShardOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := fleetd.RunFleet(jobs, fleetd.ShardOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	checkDeterministic(t, seq, par)
	if seq.Stats.Homes != len(jobs) || seq.Stats.Verdicts == 0 {
		t.Fatalf("unexpected aggregate: %+v", seq.Stats)
	}
}

// TestRunFleetHundredSynthHomes drives a 110-home procedurally generated
// fleet concurrently and checks the result is identical to the sequential
// run — the fleet-scale determinism acceptance gate.
func TestRunFleetHundredSynthHomes(t *testing.T) {
	const homes, days = 110, 2
	jobs := make([]stream.Job, homes)
	for i := range jobs {
		sp := scenario.Synth(4+i%6, 1+i%3, uint64(1000+i))
		jobs[i] = specJob(sp, days, uint64(31+i))
	}
	par, err := fleetd.RunFleet(jobs, fleetd.ShardOptions{Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := fleetd.RunFleet(jobs, fleetd.ShardOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkDeterministic(t, par, seq)
	st := par.Stats
	if st.Homes != homes || st.Days != homes*days || st.Slots != int64(homes*days*aras.SlotsPerDay) {
		t.Fatalf("aggregate miscount: %+v", st)
	}
	if st.TotalKWh <= 0 || st.TotalCostUSD <= 0 || st.Events <= st.Slots {
		t.Fatalf("implausible aggregate: %+v", st)
	}
}

// TestFleetBrokerTransport routes a small fleet through a real MQTT broker
// over loopback TCP and checks (a) per-home results are bit-identical
// between the direct run and the binary day-block transport, and (b) the
// fleet-wide home/+/sensor monitor tallied one frame per home-day.
func TestFleetBrokerTransport(t *testing.T) {
	broker, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()

	const days = 1
	var jobs []stream.Job
	for _, sp := range registrySpecs(t, "A", "B", "studio") {
		jobs = append(jobs, specJob(sp, days, 7))
	}
	direct, err := fleetd.RunFleet(jobs, fleetd.ShardOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	piped, err := fleetd.RunFleet(jobs, fleetd.ShardOptions{Workers: 2, Broker: broker.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	checkDeterministic(t, direct, piped)
	if piped.Stats.BusFrames != piped.Stats.Days {
		t.Fatalf("block monitor saw %d bus frames, want %d (one per home-day)", piped.Stats.BusFrames, piped.Stats.Days)
	}
	if direct.Stats.BusFrames != 0 {
		t.Fatalf("direct run reported %d bus frames", direct.Stats.BusFrames)
	}
}

// TestRunFleetErrorPropagation checks first-error-wins with home context.
func TestRunFleetErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	jobs := []stream.Job{
		specJob(scenario.Synth(4, 1, 5), 1, 5),
		{ID: "broken", Open: func() (stream.Source, *stream.Home, error) { return nil, nil, boom }},
	}
	_, err := fleetd.RunFleet(jobs, fleetd.ShardOptions{Workers: 4})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "broken") {
		t.Fatalf("err = %v, want wrapped boom naming the home", err)
	}
}

// TestVerdictEventsThroughFleet checks OnVerdict events survive the fleet
// path (the hook a service publishes detector verdicts from).
func TestVerdictEventsThroughFleet(t *testing.T) {
	tr, model := stream.ExportTestWorld(t, "B", 3, 2)
	var count int64
	job := stream.Job{ID: "B", Open: func() (stream.Source, *stream.Home, error) {
		h, err := stream.NewHome(stream.HomeConfig{
			ID:       "B",
			House:    tr.House,
			Params:   hvac.DefaultParams(),
			Pricing:  hvac.DefaultPricing(),
			Defender: model,
			OnVerdict: func(v adm.Verdict) {
				if v.Episode.Duration <= 0 {
					panic(fmt.Sprintf("bad verdict episode: %+v", v.Episode))
				}
				count++
			},
		})
		if err != nil {
			return nil, nil, err
		}
		return stream.NewTraceSource("B", tr), h, nil
	}}
	res, err := fleetd.RunFleet([]stream.Job{job}, fleetd.ShardOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if count == 0 || count != res.Homes[0].Verdicts {
		t.Fatalf("OnVerdict saw %d verdicts, result says %d", count, res.Homes[0].Verdicts)
	}
}

// TestRunFleetRejectsDuplicateIDs: duplicate IDs would share an MQTT topic
// (crossing two homes' streams), so the fleet refuses them up front.
func TestRunFleetRejectsDuplicateIDs(t *testing.T) {
	sp := scenario.Synth(4, 1, 5)
	jobs := []stream.Job{specJob(sp, 1, 5), specJob(sp, 1, 5)}
	if _, err := fleetd.RunFleet(jobs, fleetd.ShardOptions{Workers: 2}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("err = %v, want duplicate-ID rejection", err)
	}
}
