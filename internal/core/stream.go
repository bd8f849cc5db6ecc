package core

import (
	"fmt"

	"github.com/acyd-lab/shatter/internal/adm"
	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/attack"
	"github.com/acyd-lab/shatter/internal/fleetd"
	"github.com/acyd-lab/shatter/internal/hvac"
	"github.com/acyd-lab/shatter/internal/scenario"
	"github.com/acyd-lab/shatter/internal/stream"
)

// StreamOptions configures a Suite.Stream fleet run: what each home
// streams, plus the fleet's worker, supervision, and transport options.
type StreamOptions struct {
	// Days bounds each home's stream; 0 streams the suite's configured
	// trace length, which makes a defended/attacked run comparable
	// slot-for-slot with the batch pipeline over the same world.
	Days int
	// Defend attaches an online detector per home: the suite's cached
	// DBSCAN defender (trained on the configured training prefix) scores
	// episodes the moment they close.
	Defend bool
	// Attack plans a full-knowledge SHATTER campaign (sensor spoofing +
	// Algorithm-1 appliance triggering) per home and injects it into the
	// stream in flight.
	Attack bool
	// ShardOptions runs the fleet; unset Workers take the suite's pool
	// width.
	fleetd.ShardOptions
}

// Stream drives the scenario worlds as a concurrent streaming fleet
// (fleetd.RunFleet): each home advances through an incremental generator
// source, the optional live injector, the optional online detector, and the
// incremental HVAC stepper, across the suite's worker pool with per-home
// backpressure. Per-home results and the deterministic aggregate fields are
// identical for any worker count, and — because every streaming stage is
// equivalence-locked to its batch counterpart — identical to the batch
// pipeline over the same worlds.
//
// Worlds are materialized (and defenders trained, campaigns planned) only
// when Defend or Attack demands them; a plain benign fleet streams straight
// from the generators without ever holding a full trace.
func (s *Suite) Stream(specs []scenario.Spec, opts StreamOptions) (stream.FleetResult, error) {
	jobs, err := s.FleetJobs(specs, opts)
	if err != nil {
		return stream.FleetResult{}, err
	}
	shard := opts.ShardOptions
	if shard.Workers == 0 {
		shard.Workers = s.Config.Workers
	}
	return fleetd.RunFleet(jobs, shard)
}

// FleetJobs assembles one lazily-opening stream job per spec — the job
// list both Stream and the fleetd service run, so a sharded service and a
// one-shot fleet drive byte-identical pipelines. Worlds are materialized
// (and defenders trained, campaigns planned) up front across the pool only
// when Defend or Attack demands them; a benign fleet streams straight from
// the generators without ever holding a full trace.
func (s *Suite) FleetJobs(specs []scenario.Spec, opts StreamOptions) ([]stream.Job, error) {
	days := opts.Days
	if days <= 0 {
		days = s.Config.Days
	}
	if opts.Defend || opts.Attack {
		// Training and planning need the materialized trace; build every
		// world up front across the pool so job Opens only read.
		if err := s.runCells(len(specs), func(i int) error {
			_, err := s.ensureWorld(specs[i])
			return err
		}); err != nil {
			return nil, err
		}
	}
	jobs := make([]stream.Job, len(specs))
	for i, sp := range specs {
		sp := sp
		jobs[i] = stream.Job{ID: sp.ID, Open: func() (stream.Source, *stream.Home, error) {
			src, h, err := s.openStream(sp, days, opts)
			if err != nil {
				return nil, nil, fmt.Errorf("core: stream %s: %w", sp.ID, err)
			}
			return src, h, nil
		}}
	}
	return jobs, nil
}

// openStream assembles one home's streaming pipeline on the worker that
// picked the job up.
func (s *Suite) openStream(sp scenario.Spec, days int, opts StreamOptions) (stream.Source, *stream.Home, error) {
	cfg := stream.HomeConfig{ID: sp.ID, Params: s.Params, Pricing: s.Pricing}
	if sp.Pricing != nil {
		cfg.Pricing = *sp.Pricing
	}
	var seed uint64
	if w := s.World(sp.ID); w != nil {
		cfg.House, seed = w.Trace.House, w.Seed
	} else {
		house, err := sp.Build()
		if err != nil {
			return nil, nil, err
		}
		// The seed ensureWorld would use, so a later materialization of the
		// same scenario replays exactly this stream.
		cfg.House, seed = house, sweepSeed(s.Config.Seed, sp.ID)
	}
	if sp.Controller == scenario.ControllerASHRAE {
		cfg.Controller = hvac.NewASHRAEController(s.Params, cfg.House)
	}
	if opts.Defend || opts.Attack {
		defender, err := s.trainADM(sp.ID, adm.DBSCAN, false)
		if err != nil {
			return nil, nil, err
		}
		if opts.Defend {
			cfg.Defender = defender
		}
		if opts.Attack {
			// The triggered SHATTER campaign comes from the suite cache —
			// the same entry the scenario sweep evaluates — so a fleet
			// that streams a previously analysed world injects its cached
			// campaign instead of re-planning it.
			camp, err := s.campaignFor(campaignSpec{
				House:    sp.ID,
				Strategy: "SHATTER",
				Alg:      adm.DBSCAN,
				Trigger:  true,
				Cap:      attack.Full(cfg.House),
			})
			if err != nil {
				return nil, nil, err
			}
			inj, err := stream.NewInjector(cfg.House, camp.plan)
			if err != nil {
				return nil, nil, err
			}
			cfg.Injector = inj
		}
	}
	gen, err := aras.NewGenerator(cfg.House, sp.GeneratorConfig(days, seed))
	if err != nil {
		return nil, nil, err
	}
	h, err := stream.NewHome(cfg)
	if err != nil {
		return nil, nil, err
	}
	return stream.NewGeneratorSource(sp.ID, gen), h, nil
}
