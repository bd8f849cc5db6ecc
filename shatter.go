// Package shatter is the public API of the SHATTER reproduction — a
// control- and defense-aware attack-analytics framework for activity-driven
// smart-home systems (Haque et al., DSN 2023).
//
// The package re-exports the stable surface of the internal modules:
//
//   - the declarative scenario layer (a registry of named home archetypes
//     plus a procedural generator for arbitrary worlds),
//   - dataset generation (ARAS-style synthetic activity traces),
//   - the DCHVAC controllers and plant simulation,
//   - the clustering + convex-hull anomaly detection model (ADM),
//   - the attack planner (BIoTA baseline, greedy Algorithm 2, SHATTER
//     windowed schedule) and the appliance-triggering stage (Algorithm 1),
//   - the experiment suite that regenerates every table and figure of the
//     paper's evaluation and sweeps the full pipeline over arbitrary
//     scenarios, and
//   - the scaled prototype testbed with its MQTT-style transport, and
//   - the sharded fleet service: a long-running runtime that multiplexes
//     very large home fleets over small worker pools, with an MQTT control
//     plane, live metrics, and checkpointed drain/rehydrate.
//
// See examples/quickstart for a five-minute tour.
package shatter

import (
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
	"github.com/acyd-lab/shatter/internal/testbed"
)

// Domain model.
type (
	// House is a smart-home configuration (zones, occupants, appliances).
	House = home.House
	// ZoneID identifies a zone; Outside is zone 0.
	ZoneID = home.ZoneID
	// ActivityID identifies one of the 27 ARAS activities.
	ActivityID = home.ActivityID
	// Trace is a multi-day activity/occupancy recording.
	Trace = aras.Trace
	// Episode is one contiguous stay of an occupant in a zone.
	Episode = aras.Episode
	// GeneratorConfig parameterises synthetic trace generation.
	GeneratorConfig = aras.GeneratorConfig
)

// Zone constants re-exported for examples and tools.
const (
	Outside    = home.Outside
	Bedroom    = home.Bedroom
	Livingroom = home.Livingroom
	Kitchen    = home.Kitchen
	Bathroom   = home.Bathroom
)

// SlotsPerDay is the number of 1-minute control slots per day.
const SlotsPerDay = aras.SlotsPerDay

// NewHouse returns one of the two ARAS-style houses, "A" or "B" — a compat
// wrapper over the canonical blueprints. Other homes come from the scenario
// registry (GetScenario) or BuildHouse.
func NewHouse(name string) (*House, error) { return home.NewHouse(name) }

// Generate produces a synthetic activity trace for the house.
func Generate(h *House, cfg GeneratorConfig) (*Trace, error) { return aras.Generate(h, cfg) }

// Scenario layer: declarative world models.
type (
	// Scenario is a declarative home description: zones, occupants with
	// schedule profiles, appliances, and generator/controller configuration.
	Scenario = scenario.Spec
	// ScenarioZone declares one conditioned zone of a scenario.
	ScenarioZone = scenario.ZoneSpec
	// ScenarioOccupant declares one resident of a scenario.
	ScenarioOccupant = scenario.OccupantSpec
	// ScheduleProfile is an occupant's daily-routine archetype.
	ScheduleProfile = aras.ScheduleProfile
	// HouseBlueprint is the home layer's declarative construction form.
	HouseBlueprint = home.Blueprint
	// SweepPoint is one scenario's end-to-end pipeline measurement.
	SweepPoint = core.SweepPoint
)

// RegisterScenario validates a scenario and adds it to the named registry.
func RegisterScenario(sp Scenario) error { return scenario.Register(sp) }

// GetScenario returns a registered scenario by ID. Builtins include the
// paper's ARAS pair ("A", "B") plus "studio", "family4", "nightshift", and
// "shared8".
func GetScenario(id string) (Scenario, bool) { return scenario.Get(id) }

// ScenarioIDs lists all registered scenario IDs in registration order.
func ScenarioIDs() []string { return scenario.IDs() }

// SynthScenario procedurally generates a home with the given conditioned
// zone and occupant counts, deterministically from the seed.
func SynthScenario(zones, occupants int, seed uint64) Scenario {
	return scenario.Synth(zones, occupants, seed)
}

// BuildHouse assembles a House from a declarative blueprint.
func BuildHouse(bp HouseBlueprint) (*House, error) { return home.BuildHouse(bp) }

// HVAC control.
type (
	// HVACParams configures the DCHVAC plant and comfort bounds.
	HVACParams = hvac.Params
	// Pricing is the two-tier TOU tariff with battery storage.
	Pricing = hvac.Pricing
	// Controller plans per-zone airflow from believed occupancy.
	Controller = hvac.Controller
	// SimResult is a plant simulation's cost/energy accounting.
	SimResult = hvac.Result
)

// DefaultHVACParams returns the reproduction's plant parameters.
func DefaultHVACParams() HVACParams { return hvac.DefaultParams() }

// DefaultPricing returns the PG&E-style TOU tariff.
func DefaultPricing() Pricing { return hvac.DefaultPricing() }

// NewSHATTERController returns the paper's activity-aware controller.
// Controllers reuse internal scratch buffers across control slots, so a
// single instance must not drive concurrent simulations — create one
// controller per simulation goroutine.
func NewSHATTERController(p HVACParams) Controller { return &hvac.SHATTERController{Params: p} }

// NewASHRAEController returns the Fig 3 baseline controller. Like
// NewSHATTERController, one instance must not drive concurrent simulations.
func NewASHRAEController(p HVACParams, h *House) Controller { return hvac.NewASHRAEController(p, h) }

// Simulate runs a controller over a trace with benign beliefs. For
// concurrent simulations, give each call its own controller instance.
func Simulate(tr *Trace, ctrl Controller, p HVACParams, pr Pricing) (SimResult, error) {
	return hvac.Simulate(tr, ctrl, p, pr)
}

// Anomaly detection.
type (
	// ADMAlgorithm selects DBSCAN or K-Means clustering.
	ADMAlgorithm = adm.Algorithm
	// ADMConfig parameterises ADM training.
	ADMConfig = adm.Config
	// ADM is a trained anomaly detection model.
	ADM = adm.Model
)

// The two ADM backends.
const (
	DBSCAN = adm.DBSCAN
	KMeans = adm.KMeans
)

// DefaultADMConfig returns the paper's hyperparameters for a backend.
func DefaultADMConfig(alg ADMAlgorithm) ADMConfig { return adm.DefaultConfig(alg) }

// TrainADM fits an anomaly detection model on a trace.
func TrainADM(tr *Trace, cfg ADMConfig) (*ADM, error) { return adm.Train(tr, cfg) }

// Attack analytics.
type (
	// Capability models the attacker's sensor/appliance/occupant access.
	Capability = attack.Capability
	// Planner synthesises attack schedules.
	Planner = attack.Planner
	// Plan is a falsified-measurement campaign.
	Plan = attack.Plan
	// Impact is an attack campaign's evaluated outcome.
	Impact = attack.Impact
	// EvalOptions configures impact evaluation.
	EvalOptions = attack.EvalOptions
)

// FullCapability grants access to everything in the house.
func FullCapability(h *House) Capability { return attack.Full(h) }

// NewPlanner builds an attack planner. The model is the attacker's ADM
// estimate; windowLen is the optimisation horizon I (paper: 10).
func NewPlanner(tr *Trace, model *ADM, p HVACParams, pr Pricing, cap Capability, windowLen int) *Planner {
	return &attack.Planner{
		Trace:     tr,
		Model:     model,
		Cost:      hvac.NewCostModel(tr.House, p, pr),
		Cap:       cap,
		WindowLen: windowLen,
	}
}

// TriggerAppliances runs Algorithm 1 over a plan, really switching on
// accessible appliances in stealthy windows. Returns triggered slots.
func TriggerAppliances(tr *Trace, plan *Plan, model *ADM, cap Capability) int {
	return attack.TriggerAppliances(tr, plan, model, cap)
}

// EvaluateImpact scores a plan against a defender's ADM and the plant.
func EvaluateImpact(tr *Trace, plan *Plan, defender *ADM, ctrl Controller, p HVACParams, pr Pricing, opts EvalOptions) (Impact, error) {
	return attack.EvaluateImpact(tr, plan, defender, ctrl, p, pr, opts)
}

// Experiment suite.
type (
	// Suite regenerates every table and figure of the paper.
	Suite = core.Suite
	// SuiteConfig parameterises a reproduction run.
	SuiteConfig = core.SuiteConfig
)

// DefaultSuiteConfig mirrors the paper's setup (30 days, horizon 10).
func DefaultSuiteConfig() SuiteConfig { return core.DefaultSuiteConfig() }

// NewSuite generates the configured scenarios' datasets (the paper's ARAS
// pair by default) and returns the experiment runner. Suite.ScenarioSweep
// runs the full pipeline over further registry or procedural scenarios.
func NewSuite(cfg SuiteConfig) (*Suite, error) { return core.NewSuite(cfg) }

// Streaming runtime: the incremental event core, online detection, live
// injection, and the fleet runner. Every streaming path is equivalence-
// locked to its batch counterpart (replaying a house reproduces the batch
// trace, controller costs, and ADM verdicts byte-for-byte).
type (
	// StreamSlot is one minute of a home's sensor traffic — the per-slot
	// reference view of a day block.
	StreamSlot = stream.Slot
	// StreamSource produces a home's day blocks in order.
	StreamSource = stream.Source
	// StreamHome is one home's incremental pipeline (injector → online
	// detector → HVAC stepper).
	StreamHome = stream.Home
	// StreamHomeConfig wires one home's streaming pipeline.
	StreamHomeConfig = stream.HomeConfig
	// StreamHomeResult aggregates one home's streamed run.
	StreamHomeResult = stream.HomeResult
	// StreamOptions configures Suite.Stream.
	StreamOptions = core.StreamOptions
	// FleetJob is one home's entry in a fleet run.
	FleetJob = stream.Job
	// FleetOptions configures a fleet run: workers, admission window,
	// supervision, chaos, and frame transport. It is the same type as
	// FleetShardOptions.
	FleetOptions = fleetd.ShardOptions
	// FleetResult is a fleet run's per-home results plus aggregate stats.
	FleetResult = stream.FleetResult
	// FleetStats is a fleet run's aggregate accounting and throughput.
	FleetStats = stream.FleetStats
	// OnlineDetector scores an occupancy stream episode-by-episode online.
	OnlineDetector = adm.Detector
	// Verdict is the online detector's judgement of one closed episode.
	Verdict = adm.Verdict
)

// NewStreamHome builds the incremental runtime for one home.
func NewStreamHome(cfg StreamHomeConfig) (*StreamHome, error) { return stream.NewHome(cfg) }

// NewGeneratorStream adapts an incremental trace generator into a stream
// source, emitting a home's days one block at a time without materializing
// the trace.
func NewGeneratorStream(id string, h *House, cfg GeneratorConfig) (StreamSource, error) {
	g, err := aras.NewGenerator(h, cfg)
	if err != nil {
		return nil, err
	}
	return stream.NewGeneratorSource(id, g), nil
}

// NewTraceStream replays a materialized trace as day blocks.
func NewTraceStream(id string, tr *Trace) StreamSource { return stream.NewTraceSource(id, tr) }

// NewInjector builds the live attack injector for a home's plan. It runs
// the plan's day kernel (Plan.FalsifyDay), the same one EvaluateImpact runs
// in batch.
func NewInjector(h *House, plan *Plan) (*stream.Injector, error) { return stream.NewInjector(h, plan) }

// NewOnlineDetector wraps a trained ADM for online, per-episode use.
func NewOnlineDetector(m *ADM) *OnlineDetector { return adm.NewDetector(m) }

// RunFleet drives every job's pipeline to end-of-stream on one fleet-service
// shard run to idle, optionally over an MQTT broker.
func RunFleet(jobs []FleetJob, opts FleetOptions) (FleetResult, error) {
	return fleetd.RunFleet(jobs, opts)
}

// Fleet service: the long-running sharded runtime RunFleet is the batch
// form of. It multiplexes thousands of homes over a small worker pool per
// shard, admits and removes homes while running, pauses, drains, and
// rehydrates shards from checkpoints, and speaks MQTT on its admin and
// metrics topics. Per-home results stay byte-identical to RunFleet over
// the same jobs, whatever the shard count.
type (
	// FleetService is the running sharded fleet runtime.
	FleetService = fleetd.Service
	// FleetServiceConfig wires shards, the control-plane broker, and the
	// metrics cadence.
	FleetServiceConfig = fleetd.Config
	// FleetShardOptions tunes one shard's scheduler (workers, admission
	// window, quantum, supervision, frame transport); the same type as
	// FleetOptions.
	FleetShardOptions = fleetd.ShardOptions
	// FleetAdmin is an MQTT control-plane client for a running service.
	FleetAdmin = fleetd.Admin
	// FleetAddRequest names homes for admission in the scenario grammar.
	FleetAddRequest = fleetd.AddRequest
	// FleetSnapshot is one published metrics document.
	FleetSnapshot = fleetd.Snapshot
)

// NewFleetService starts a fleet service wired to a suite: admin add
// requests resolve through the suite's scenario grammar and dataset seeds.
func NewFleetService(s *Suite, cfg FleetServiceConfig) (*FleetService, error) {
	return core.NewFleetService(s, cfg)
}

// NewFleetAdmin dials a running fleet service's control plane.
func NewFleetAdmin(broker string) (*FleetAdmin, error) {
	return fleetd.NewAdmin(broker, mqtt.DialOptions{})
}

// Testbed.
type (
	// TestbedConfig parameterises the scaled prototype testbed.
	TestbedConfig = testbed.Config
	// TestbedValidation is the Section VI benign-vs-attacked result.
	TestbedValidation = testbed.ValidationResult
)

// DefaultTestbedConfig returns the paper's testbed parameters.
func DefaultTestbedConfig() TestbedConfig { return testbed.DefaultConfig() }

// ValidateTestbed runs the full Section VI experiment on the canonical
// four-zone rig.
func ValidateTestbed(cfg TestbedConfig) (TestbedValidation, error) { return testbed.Validate(cfg) }

// ValidateTestbedHouse runs the Section VI experiment against any scenario
// house scaled down to the tabletop rig.
func ValidateTestbedHouse(cfg TestbedConfig, h *House) (TestbedValidation, error) {
	return testbed.ValidateHouse(cfg, h)
}
