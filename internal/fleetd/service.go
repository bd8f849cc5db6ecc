package fleetd

import (
	"fmt"
	"sync"
	"time"

	"github.com/acyd-lab/shatter/internal/stream"
)

// JobFactory resolves an admin AddRequest into concrete stream jobs. The
// service itself is scenario-agnostic; the factory (supplied by the core
// layer) owns world materialization, ADM training, and job assembly.
type JobFactory func(req AddRequest) ([]stream.Job, error)

// Config assembles a fleet service. The zero value runs one shard with the
// shard defaults, no control plane, and no metrics publishing.
type Config struct {
	// Shards is the horizontal partition count; 0 defaults to 1. Homes are
	// assigned round-robin in add order.
	Shards int
	// Shard holds the per-shard worker, supervision and transport options
	// (worker count, retries, chaos, frame transport).
	Shard ShardOptions

	// Broker, when non-empty, attaches the control plane: the service
	// subscribes to fleet/admin/+ for admin requests and publishes metrics
	// snapshots on fleet/metrics every MetricsEvery (default 2s). This is
	// the control-plane connection only; per-home frame transport is
	// Shard.Broker.
	Broker string
	// MetricsEvery is the metrics publishing cadence; 0 defaults to 2s.
	MetricsEvery time.Duration

	// Jobs resolves control-plane add requests; nil rejects them (homes can
	// still be added programmatically via Add).
	Jobs JobFactory

	// StateDir enables the durable fleet manifest, <StateDir>/fleet.manifest,
	// the service's only durable store: admissions through AddSpec and the
	// control plane, admin mutations (pause/resume/remove), day-boundary
	// checkpoints and per-home completions are journaled to it. NewService
	// replays the manifest: finished homes are restored from their journaled
	// results without re-running, in-flight homes are re-admitted (paused
	// ones still paused) and resume from their newest checkpoint — so a
	// service killed without drain and restarted produces results
	// byte-identical to an uninterrupted run. Replaying a non-empty manifest
	// requires Jobs (replay re-resolves specs through the factory).
	// Programmatic Add is NOT journaled; durable fleets admit via AddSpec.
	StateDir string

	// checkpointed, when set, runs after each checkpoint record reaches the
	// journal, on the worker that wrote it and outside the manifest lock.
	// Tests hold a worker in it to place a kill on a journal event.
	checkpointed func(*Service)
}

// endedHome is a terminal home restored from the manifest rather than run
// by a shard this process lifetime.
type endedHome struct {
	result  stream.HomeResult
	outcome stream.HomeOutcome
}

// Service is the long-running fleet runtime: a set of shards running
// homes on worker pools, a shared metrics registry, and (optionally) an
// MQTT control plane.
type Service struct {
	cfg    Config
	met    *Metrics
	shards []*Shard
	man    *Manifest

	// admitMu serializes AddSpec's journal-then-admit sequence so manifest
	// add records land in admission order.
	admitMu sync.Mutex

	mu    sync.Mutex
	order []string             // home IDs in add order, for Result
	where map[string]int       // home ID -> shard (endedShard for manifest-restored terminal homes)
	ended map[string]endedHome // terminal homes restored from the manifest
	next  int                  // round-robin cursor
	ctl   *controlPlane
	done  chan struct{}
	stop  sync.Once

	resumedDone int // terminal homes restored from the manifest
	resumedLive int // in-flight homes re-admitted from the manifest
}

// endedShard is the where-map sentinel for homes that finished in a prior
// process lifetime: they live in the ended map, not on any shard.
const endedShard = -1

// NewService starts the shards, replays the manifest when a state dir is
// configured, and then attaches the control plane — so an admin never
// observes a half-restored fleet.
func NewService(cfg Config) (*Service, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.MetricsEvery <= 0 {
		cfg.MetricsEvery = 2 * time.Second
	}
	s := &Service{
		cfg:   cfg,
		met:   NewMetrics(),
		where: make(map[string]int),
		ended: make(map[string]endedHome),
		done:  make(chan struct{}),
	}
	if cfg.StateDir != "" {
		// The shard hooks journal checkpoints and terminal homes; they must be
		// wired before any shard worker can reach either.
		s.cfg.Shard.onCheckpoint = s.noteCheckpoint
		s.cfg.Shard.onDone = s.noteDone
	}
	for i := 0; i < cfg.Shards; i++ {
		s.shards = append(s.shards, newShard(i, s.cfg.Shard, s.met))
	}
	if cfg.StateDir != "" {
		man, recs, err := OpenManifest(cfg.StateDir)
		if err != nil {
			s.Close(false)
			return nil, err
		}
		s.man = man
		if err := s.replay(recs); err != nil {
			s.Close(false)
			return nil, fmt.Errorf("fleetd: manifest replay: %w", err)
		}
	}
	if cfg.Broker != "" {
		ctl, err := newControlPlane(s, cfg.Broker, cfg.MetricsEvery)
		if err != nil {
			s.Close(false)
			return nil, err
		}
		s.ctl = ctl
	}
	return s, nil
}

// replay rebuilds the fleet from manifest records: add specs re-resolve
// through the job factory, mutations collapse to final per-home state, and
// each job lands either in the ended map (done/removed, with its journaled
// outcome) or back on a shard (in-flight, paused when a pause was in
// effect) to resume from its newest journaled checkpoint.
func (s *Service) replay(recs []ManifestRecord) error {
	if len(recs) == 0 {
		return nil
	}
	if s.cfg.Jobs == nil {
		return fmt.Errorf("fleetd: state dir holds a manifest but the service has no job factory")
	}
	var jobs []stream.Job
	seen := make(map[string]bool)
	paused := make(map[string]bool)
	removed := make(map[string]bool)
	finished := make(map[string]*ManifestRecord)
	cks := make(map[string]*stream.Checkpoint)
	for i := range recs {
		rec := &recs[i]
		switch rec.Op {
		case manifestOpAdd:
			js, err := s.cfg.Jobs(*rec.Add)
			if err != nil {
				return err
			}
			for _, j := range js {
				if seen[j.ID] {
					return fmt.Errorf("fleetd: manifest admits home %q twice", j.ID)
				}
				seen[j.ID] = true
			}
			jobs = append(jobs, js...)
		case manifestOpPause:
			paused[rec.Home] = true
		case manifestOpResume:
			delete(paused, rec.Home)
		case manifestOpRemove:
			removed[rec.Home] = true
		case manifestOpDone:
			finished[rec.Home] = rec
		case manifestOpCheckpoint:
			cks[rec.Home] = rec.Checkpoint
		}
	}
	var live []stream.Job
	for _, j := range jobs {
		switch {
		case finished[j.ID] != nil:
			rec := finished[j.ID]
			e := endedHome{outcome: *rec.Outcome, result: stream.HomeResult{ID: j.ID}}
			if rec.Result != nil {
				e.result = *rec.Result
			}
			s.end(j.ID, e)
		case removed[j.ID]:
			s.end(j.ID, endedHome{
				outcome: stream.HomeOutcome{ID: j.ID, Status: OutcomeRemoved},
				result:  stream.HomeResult{ID: j.ID},
			})
		default:
			live = append(live, j)
		}
	}
	if err := s.admit(live, paused, cks); err != nil {
		return err
	}
	// end() and admit() each appended their subset; Result order must be
	// the original admission order with ended and live homes interleaved.
	ids := make([]string, len(jobs))
	for i, j := range jobs {
		ids[i] = j.ID
	}
	s.mu.Lock()
	s.order = ids
	s.mu.Unlock()
	s.resumedDone = len(s.ended)
	s.resumedLive = len(live)
	return nil
}

// end registers a manifest-restored terminal home and accounts it in the
// lifetime counters.
func (s *Service) end(id string, e endedHome) {
	s.mu.Lock()
	s.order = append(s.order, id)
	s.where[id] = endedShard
	s.ended[id] = e
	s.mu.Unlock()
	s.met.homesAdded.Add(1)
	switch e.outcome.Status {
	case OutcomeRemoved:
		s.met.homesRemoved.Add(1)
	case stream.OutcomeQuarantined:
		s.met.homesFailed.Add(1)
	default:
		s.met.homesCompleted.Add(1)
	}
}

// noteCheckpoint is the shard checkpoint hook (StateDir only): journal the
// home's day-boundary checkpoint, so a restart resumes it there.
func (s *Service) noteCheckpoint(ck *stream.Checkpoint) error {
	if err := s.record(ManifestRecord{Op: manifestOpCheckpoint, Home: ck.Home, Checkpoint: ck}); err != nil {
		return err
	}
	if s.cfg.checkpointed != nil {
		s.cfg.checkpointed(s)
	}
	return nil
}

// noteDone is the shard completion hook (StateDir only): journal the
// terminal home so a restart restores it instead of re-running.
func (s *Service) noteDone(res stream.HomeResult, out stream.HomeOutcome) error {
	rec := ManifestRecord{Op: manifestOpDone, Home: out.ID, Outcome: &out}
	switch out.Status {
	case stream.OutcomeCompleted, stream.OutcomeRetried:
		rec.Result = &res
	}
	return s.record(rec)
}

// record appends a record from a shard worker. These appends are
// deliberately not fsynced on the hot path (see Manifest.Append); a failed
// one is counted in journal_errors and returned to the shard, which fails
// the checkpoint or keeps the error in the home's outcome.
func (s *Service) record(rec ManifestRecord) error {
	err := s.man.Append(rec)
	if err != nil {
		s.met.journalErrors.Add(1)
	}
	return err
}

// journal appends one admin mutation record and syncs it to disk. Called
// after the mutation succeeded; no-op without a state dir.
func (s *Service) journal(rec ManifestRecord) error {
	if s.man == nil {
		return nil
	}
	if err := s.man.Append(rec); err != nil {
		return err
	}
	return s.man.Sync()
}

// Add admits jobs to the fleet, round-robin across shards in add order.
// IDs must be unique fleet-wide (they key journal records and MQTT topics).
// Add is NOT journaled — a durable fleet admits via AddSpec so the spec
// can be replayed through the job factory on restart.
func (s *Service) Add(jobs []stream.Job) error {
	return s.admit(jobs, nil, nil)
}

// admit is Add plus the replay path's pre-paused set and checkpoints.
func (s *Service) admit(jobs []stream.Job, paused map[string]bool, cks map[string]*stream.Checkpoint) error {
	if len(jobs) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkJobsLocked(jobs); err != nil {
		return err
	}
	// Partition preserving add order within each shard.
	batches := make([][]stream.Job, len(s.shards))
	assign := make([]int, len(jobs))
	cursor := s.next
	for i, j := range jobs {
		sh := cursor % len(s.shards)
		assign[i] = sh
		batches[sh] = append(batches[sh], j)
		cursor++
	}
	for sh, batch := range batches {
		if len(batch) == 0 {
			continue
		}
		if err := s.shards[sh].add(batch, paused, cks); err != nil {
			return err
		}
	}
	for i, j := range jobs {
		s.order = append(s.order, j.ID)
		s.where[j.ID] = assign[i]
	}
	s.next = cursor
	return nil
}

// checkJobsLocked validates a batch against the fleet: well-formed jobs,
// no intra-batch duplicates, no collision with admitted or ended homes.
func (s *Service) checkJobsLocked(jobs []stream.Job) error {
	batch := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		if j.ID == "" || j.Open == nil {
			return fmt.Errorf("fleetd: job missing ID or Open")
		}
		if _, dup := s.where[j.ID]; dup || batch[j.ID] {
			return fmt.Errorf("fleetd: duplicate home ID %q", j.ID)
		}
		batch[j.ID] = true
	}
	return nil
}

// AddSpec resolves an add request through the service's job factory and
// admits the homes. With a state dir, the spec is journaled (and synced)
// before admission, so the durable intent always covers the admitted homes:
// a crash between journal and admit re-admits them fresh on restart, which
// replays identically.
func (s *Service) AddSpec(req AddRequest) (int, error) {
	if s.cfg.Jobs == nil {
		return 0, fmt.Errorf("fleetd: service has no job factory")
	}
	jobs, err := s.cfg.Jobs(req)
	if err != nil {
		return 0, err
	}
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	// Validate before journaling so a rejected add leaves no record.
	s.mu.Lock()
	err = s.checkJobsLocked(jobs)
	s.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if err := s.journal(ManifestRecord{Op: manifestOpAdd, Add: &req}); err != nil {
		return 0, err
	}
	if err := s.admit(jobs, nil, nil); err != nil {
		return 0, err
	}
	return len(jobs), nil
}

// Resumed reports what the manifest replay restored: homes already
// terminal (served from their journaled results) and in-flight homes
// re-admitted to shards.
func (s *Service) Resumed() (done, live int) {
	return s.resumedDone, s.resumedLive
}

// shardOf locates a home's shard.
func (s *Service) shardOf(homeID string) (*Shard, error) {
	s.mu.Lock()
	idx, ok := s.where[homeID]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("fleetd: unknown home %q", homeID)
	}
	if idx == endedShard {
		return nil, fmt.Errorf("fleetd: home %q already finished", homeID)
	}
	return s.shards[idx], nil
}

// Pause / Resume / Remove forward to the home's shard and journal the
// mutation (synced) once it succeeds, so a restart replays the same fleet
// shape an uninterrupted service would have.
func (s *Service) Pause(homeID string) error {
	sh, err := s.shardOf(homeID)
	if err != nil {
		return err
	}
	if err := sh.Pause(homeID); err != nil {
		return err
	}
	return s.journal(ManifestRecord{Op: manifestOpPause, Home: homeID})
}

func (s *Service) Resume(homeID string) error {
	sh, err := s.shardOf(homeID)
	if err != nil {
		return err
	}
	if err := sh.Resume(homeID); err != nil {
		return err
	}
	return s.journal(ManifestRecord{Op: manifestOpResume, Home: homeID})
}

func (s *Service) Remove(homeID string) error {
	sh, err := s.shardOf(homeID)
	if err != nil {
		return err
	}
	if err := sh.Remove(homeID); err != nil {
		return err
	}
	return s.journal(ManifestRecord{Op: manifestOpRemove, Home: homeID})
}

// shard bounds-checks a shard index.
func (s *Service) shard(i int) (*Shard, error) {
	if i < 0 || i >= len(s.shards) {
		return nil, fmt.Errorf("fleetd: shard %d out of range [0,%d)", i, len(s.shards))
	}
	return s.shards[i], nil
}

// DrainShard quiesces one shard, releasing its running homes at their day
// boundaries.
func (s *Service) DrainShard(i int) error {
	sh, err := s.shard(i)
	if err != nil {
		return err
	}
	return sh.Drain()
}

// RehydrateShard restarts a drained shard's dispatch; its released homes
// reopen from their checkpoints.
func (s *Service) RehydrateShard(i int) error {
	sh, err := s.shard(i)
	if err != nil {
		return err
	}
	return sh.Rehydrate()
}

// WaitIdle blocks until every admitted home on every shard reached a
// terminal state.
func (s *Service) WaitIdle() {
	for _, sh := range s.shards {
		sh.WaitIdle()
	}
}

// Snapshot assembles the live metrics document.
func (s *Service) Snapshot() Snapshot {
	statuses := make([]ShardStatus, len(s.shards))
	for i, sh := range s.shards {
		statuses[i] = sh.Status()
	}
	return s.met.Snapshot(statuses)
}

// Result assembles the fleet outcome in add order: per-home results
// (ID-only for homes that did not complete), supervision outcomes for every
// home, and the aggregate. Call after WaitIdle for a settled fleet;
// calling earlier reports in-flight homes as OutcomeActive. A running
// home's worker writes its days, attempts and elapsed time without the
// shard lock, so those fields are final, and safe to read, only once the
// service is idle or closed.
func (s *Service) Result() stream.FleetResult {
	s.mu.Lock()
	order := append([]string(nil), s.order...)
	s.mu.Unlock()
	results := make([]stream.HomeResult, len(order))
	outcomes := make([]stream.HomeOutcome, len(order))
	for i, id := range order {
		s.mu.Lock()
		e, restored := s.ended[id]
		s.mu.Unlock()
		if restored {
			results[i], outcomes[i] = e.result, e.outcome
			continue
		}
		sh, err := s.shardOf(id)
		if err != nil {
			results[i] = stream.HomeResult{ID: id}
			outcomes[i] = stream.HomeOutcome{ID: id}
			continue
		}
		results[i], outcomes[i], _ = sh.Outcome(id)
	}
	return stream.AggregateFleet(results, outcomes)
}

// Done is closed when the control plane receives a stop request (or Close
// is called). Embedders select on it to run the service until an admin
// shuts it down.
func (s *Service) Done() <-chan struct{} { return s.done }

// Close shuts the service down: the control plane detaches, every shard
// stops dispatch before Close waits on any of them, so no shard starts a
// day while another finishes its running ones; then each shard's workers
// release their homes at the end of their days and exit, and finally the
// manifest takes a last sync and closes — after the shards, so late
// checkpoint and completion records from finishing workers still land.
// persist changes nothing: a supervised home journaled its checkpoint with
// its day, so a kill and a clean stop leave the same journal. Idempotent.
func (s *Service) Close(persist bool) {
	s.stop.Do(func() { close(s.done) })
	if s.ctl != nil {
		s.ctl.close()
		s.ctl = nil
	}
	for _, sh := range s.shards {
		sh.stop()
	}
	for _, sh := range s.shards {
		sh.wg.Wait()
	}
	if s.man != nil {
		_ = s.man.Close()
	}
}
