package fleetd

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"github.com/acyd-lab/shatter/internal/mqtt"
	"github.com/acyd-lab/shatter/internal/stream"
)

// ShardOptions configures a fleet run: one shard's scheduler, supervision,
// and transport. It is the only fleet options type — the service gives
// every shard a copy, RunFleet runs one shard to idle, and
// core.StreamOptions embeds it. The zero value multiplexes over one worker
// per CPU with a 4096-home admission window (RunFleet: one home per
// worker), direct (in-process) frame transport, and no supervision.
type ShardOptions struct {
	// Workers is the shard's worker-goroutine count; 0 selects one per CPU.
	// Homes vastly outnumber workers — the scheduler multiplexes them.
	Workers int
	// MaxResident bounds how many homes hold live pipeline state at once
	// (the admission window); 0 defaults to 4096 on the service and to
	// Workers under RunFleet. Homes beyond the window wait unopened on the
	// pending queue, which is what keeps a 100k-home shard's memory
	// proportional to the window, not the fleet.
	MaxResident int

	// Recover enables supervised retries: a failed home reopens from its
	// last day-boundary checkpoint up to MaxRetries times (0 defaults to 3,
	// negative disables) before it is quarantined. Without it RunFleet
	// aborts on the first failed home.
	Recover bool
	// MaxRetries is the retry budget per home (see Recover).
	MaxRetries int
	// FailFast makes RunFleet abort on the first quarantined home even when
	// Recover is set. The service never aborts a fleet and ignores it.
	FailFast bool
	// RetryBackoff schedules the pause before each retry; retries wait on a
	// timer, never on a worker.
	RetryBackoff mqtt.Backoff
	// Deprecated: checkpoints are journaled synchronously to the service's
	// manifest, and this option is ignored.
	AsyncCheckpoints bool
	// Chaos injects the seeded fault schedule into every home's transport.
	Chaos *stream.FaultConfig
	// Clock times chaos delay faults and retry backoff timers; nil (the
	// default, kept by the live service) is real wall-clock time.
	Clock stream.Clock

	// ProgressDeadline is the one stall bound: each brokered home's pipe
	// gets it as its ReceiveTimeout, so a wait for the next day frame that
	// outlives it fails the attempt with stream.ErrReceiveTimeout, counted
	// in watchdog_trips, and the home takes the supervised fault path —
	// retry from its last checkpoint, then quarantine. 0 waits forever,
	// except that supervised brokered shards default to 10s so a lost
	// end-of-stream sentinel surfaces as a retryable error instead of a
	// hang. Direct in-process sources are pull-driven and never wedge, so
	// it does not apply to them. The deadline runs on real time, never on
	// Clock.
	ProgressDeadline time.Duration

	// Broker, when non-empty, routes every home's frames through the MQTT
	// broker at this address (per-home home/<id>/sensor topics). Each
	// home's pipe counts the frames its receiver takes off the bus into the
	// registry's bus_frames. A pipe's connection never resumes: a broker
	// restart fails the attempt, and a supervised home retries from its
	// last checkpoint.
	Broker string

	// onDone, when set, observes every home reaching a terminal state on
	// this shard with its final result and supervision record — the
	// service's manifest hook. Called off the shard lock, on the worker (or
	// failing goroutine) that finished the home; an error lands in the
	// home's outcome when it has none.
	onDone func(res stream.HomeResult, out stream.HomeOutcome) error
	// onCheckpoint, when set, journals every day-boundary checkpoint — the
	// service's manifest hook. Called on the worker that owns the home; an
	// error fails the checkpoint.
	onCheckpoint func(ck *stream.Checkpoint) error
}

// withDefaults resolves the documented option defaults.
func (o ShardOptions) withDefaults() ShardOptions {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxResident <= 0 {
		o.MaxResident = 4096
	}
	if o.Recover && o.MaxRetries == 0 {
		o.MaxRetries = 3
	}
	if o.Recover && o.ProgressDeadline == 0 && o.Broker != "" {
		o.ProgressDeadline = 10 * time.Second
	}
	if o.Clock == nil {
		o.Clock = stream.RealClock
	}
	return o
}

// supervised reports whether the shard keeps day-boundary checkpoints as
// it runs (for retries and/or the journal).
func (o ShardOptions) supervised() bool { return o.Recover || o.onCheckpoint != nil }

// homeState is a home's position in the shard lifecycle.
type homeState uint8

const (
	// statePending: admitted to the shard but holding no pipeline state —
	// freshly added, awaiting a retry timer, waiting out the admission
	// window, or released by a drain.
	statePending homeState = iota
	// stateReady: resident at a day boundary, queued for a worker.
	stateReady
	// stateRunning: a worker is driving the home's next day.
	stateRunning
	// statePaused: explicitly paused, resident or not (a drain releases a
	// paused home's pipeline and keeps the pause).
	statePaused
	// stateDone, stateFailed, stateRemoved are terminal.
	stateDone
	stateFailed
	stateRemoved
)

// homeRun is one home's scheduling record. Pipeline fields (src, drive,
// home, days, …) are only touched by the worker currently driving the home
// or, for idle homes, under the shard lock with no worker attached — a home
// is never on two workers at once.
type homeRun struct {
	job   stream.Job
	state homeState

	src   stream.Source // as returned by job.Open (owns real resources)
	drive stream.Source // transport-wrapped source the scheduler pulls

	home *stream.Home
	days int // completed days

	opens    int // pipeline openings (attempt epoch for the MQTT pipe)
	failures int
	restores int
	lastCk   *stream.Checkpoint // newest day-boundary checkpoint
	ckDay    int                // highest day boundary ever checkpointed

	pauseReq  bool
	removeReq bool
	err       error
	result    stream.HomeResult
	elapsed   time.Duration // driven time of finished turns
	began     time.Time     // start of the running turn
}

// outcome assembles the home's supervision record. Callers own the home
// (its worker, or the shard lock for idle homes).
func (h *homeRun) outcome(status stream.OutcomeStatus) stream.HomeOutcome {
	out := stream.HomeOutcome{
		ID:       h.job.ID,
		Status:   status,
		Attempts: h.opens,
		Restores: h.restores,
		Days:     h.days,
		Duration: h.elapsed,
	}
	out.CheckpointDay = h.ckDay
	if h.err != nil {
		out.Err = h.err.Error()
	}
	return out
}

// Shard multiplexes many homes over a small worker pool: homes advance one
// day per scheduling turn and then requeue, so thousands of homes share a
// handful of goroutines and every resident home is always at a day
// boundary when it is not actively running — the invariant that makes
// pause, drain, and checkpointing safe at any moment. Backpressure is
// structural: the bounded admission window caps live pipelines
// (injector→detector→controller state), and the ready queue only ever holds
// admitted homes.
type Shard struct {
	id   int
	opts ShardOptions
	met  *Metrics

	mu      sync.Mutex
	cond    *sync.Cond
	homes   map[string]*homeRun
	pending []*homeRun
	ready   []*homeRun
	// resident counts homes holding pipeline state; running the homes on a
	// worker right now; outstanding the homes not yet in a terminal state.
	resident    int
	running     int
	outstanding int
	done        int
	failed      int
	draining    bool
	drained     bool
	stopped     bool

	wg sync.WaitGroup
}

// newShard starts the shard's worker pool.
func newShard(id int, opts ShardOptions, met *Metrics) *Shard {
	sh := &Shard{
		id:    id,
		opts:  opts.withDefaults(),
		met:   met,
		homes: make(map[string]*homeRun),
	}
	sh.cond = sync.NewCond(&sh.mu)
	for w := 0; w < sh.opts.Workers; w++ {
		sh.wg.Add(1)
		go sh.worker()
	}
	return sh
}

// add admits jobs to the shard's pending queue. Duplicate IDs (including
// completed ones) are rejected — they would collide on journal records and
// MQTT topics. Homes in paused (the manifest replay's pre-paused set) are
// admitted with their pause request already standing, so a fast worker
// cannot race them past the pause a prior process lifetime recorded; homes
// in cks (the replay's newest journaled checkpoints) resume from theirs.
func (sh *Shard) add(jobs []stream.Job, paused map[string]bool, cks map[string]*stream.Checkpoint) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.stopped {
		return fmt.Errorf("fleetd: shard %d is stopped", sh.id)
	}
	for _, j := range jobs {
		if _, dup := sh.homes[j.ID]; dup {
			return fmt.Errorf("fleetd: duplicate home ID %q on shard %d", j.ID, sh.id)
		}
	}
	for _, j := range jobs {
		h := &homeRun{job: j, state: statePending, pauseReq: paused[j.ID]}
		if ck := cks[j.ID]; ck != nil {
			h.lastCk, h.ckDay = ck, ck.Days
		}
		sh.homes[j.ID] = h
		sh.pending = append(sh.pending, h)
		sh.outstanding++
	}
	sh.met.homesAdded.Add(int64(len(jobs)))
	sh.cond.Broadcast()
	return nil
}

// worker is one scheduling loop: claim the next runnable home, drive one
// day, repeat. The day-block buffer is reused across homes (sources size it
// per home).
func (sh *Shard) worker() {
	defer sh.wg.Done()
	var blk stream.DayBlock
	for {
		h := sh.next()
		if h == nil {
			return
		}
		sh.drive(h, &blk)
	}
}

// next blocks until a home is runnable (ready first, then admission from
// pending) or the shard stops.
func (sh *Shard) next() *homeRun {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for {
		if sh.stopped {
			return nil
		}
		if !sh.draining {
			if h := sh.claimLocked(); h != nil {
				return h
			}
		}
		sh.cond.Wait()
	}
}

// claimLocked pops the next runnable home under the shard lock. Queue
// entries whose state moved on since they were enqueued (removed) are stale
// and skipped.
func (sh *Shard) claimLocked() *homeRun {
	for len(sh.ready) > 0 {
		h := sh.ready[0]
		sh.ready = sh.ready[1:]
		switch {
		case h.state != stateReady:
			// stale entry
		case h.pauseReq:
			h.state = statePaused
		default:
			h.state = stateRunning
			sh.running++
			return h
		}
	}
	for sh.resident < sh.opts.MaxResident && len(sh.pending) > 0 {
		h := sh.pending[0]
		sh.pending = sh.pending[1:]
		switch {
		case h.state != statePending:
			// stale entry
		case h.pauseReq:
			h.state = statePaused
		default:
			h.state = stateRunning
			sh.resident++ // admission: the worker will open the pipeline
			sh.running++
			return h
		}
	}
	return nil
}

// drive advances one home by one day (or to end-of-stream) and hands it
// back to the scheduler, with a day-boundary checkpoint when the shard is
// supervised and event metrics from IngestDay's accounting.
func (sh *Shard) drive(h *homeRun, blk *stream.DayBlock) {
	h.began = time.Now()
	if h.home == nil {
		if err := sh.open(h); err != nil {
			sh.fail(h, err)
			return
		}
	}
	var err error
	if pipe, ok := h.drive.(*stream.Pipe); ok {
		at := pipe.Frames()
		err = pipe.NextBlock(blk)
		sh.met.busFrames.Add(pipe.Frames() - at)
	} else {
		err = h.drive.NextBlock(blk)
	}
	if err == io.EOF {
		res, cerr := h.home.Close()
		if cerr != nil {
			sh.fail(h, cerr)
			return
		}
		h.result = res
		sh.complete(h)
		return
	}
	if err != nil {
		sh.fail(h, err)
		return
	}
	st, err := h.home.IngestDay(blk)
	if err != nil {
		sh.fail(h, err)
		return
	}
	sh.met.sensorEvents.Add(st.SensorEvents)
	sh.met.actionEvents.Add(st.ActionEvents)
	sh.met.verdicts.Add(st.Verdicts)
	sh.met.anomalies.Add(st.Anomalies)
	h.days = blk.Day + 1
	sh.met.days.Add(1)
	if sh.opts.supervised() {
		if err := sh.checkpoint(h); err != nil {
			sh.fail(h, err)
			return
		}
	}
	sh.yield(h)
}

// open builds (or rebuilds) a home's pipeline on the claiming worker: one
// attempt's open → restore from the newest checkpoint → wire the transport.
func (sh *Shard) open(h *homeRun) error {
	h.opens++
	src, home, err := h.job.Open()
	if err != nil {
		return err
	}
	if ck := h.lastCk; ck != nil && ck.Days > 0 {
		if rerr := stream.RestoreFrom(src, home, ck); rerr == nil {
			h.days = ck.Days
			h.restores++
			sh.met.restores.Add(1)
		} else {
			// A checkpoint that does not fit restarts the home from scratch
			// on fresh components — a half-restored home must never stream.
			closeSource(src)
			if src, home, err = h.job.Open(); err != nil {
				return err
			}
			h.days = 0
		}
	}
	// Chaos perturbs whole day frames on the (home, attempt, day)-keyed
	// schedule. The one wrapper serves both framings: a pipe pumps onto the
	// bus exactly what the direct path would read.
	drive := stream.NewFaultSource(src, sh.opts.Chaos.Plan(h.job.ID, h.opens-1), sh.opts.Clock)
	if sh.opts.Broker != "" {
		pipe, perr := stream.OpenPipeOptions(sh.opts.Broker, stream.SensorTopic(h.job.ID), drive, stream.PipeOptions{
			ReceiveTimeout: sh.opts.ProgressDeadline,
			Epoch:          h.opens - 1,
		})
		if perr != nil {
			closeSource(src)
			return perr
		}
		drive = pipe
	}
	h.src, h.drive, h.home = src, drive, home
	return nil
}

// checkpoint snapshots a home at its current day boundary. On a service
// with a state dir it is first journaled to the manifest, synchronously, so
// a restarted process resumes the home here; only then does it become the
// in-memory checkpoint that retries, drains and rehydrates restore from —
// which therefore always equals the journal's newest.
func (sh *Shard) checkpoint(h *homeRun) error {
	ck, err := h.home.Checkpoint()
	if err != nil {
		return err
	}
	if sh.opts.onCheckpoint != nil {
		if err := sh.opts.onCheckpoint(ck); err != nil {
			return err
		}
	}
	h.lastCk = ck
	if ck.Days > h.ckDay {
		h.ckDay = ck.Days
	}
	sh.met.checkpoints.Add(1)
	return nil
}

// teardown releases a home's pipeline state. Safe on partially opened
// homes.
func (h *homeRun) teardown() {
	if h.drive != nil && h.drive != h.src {
		closeSource(h.drive) // MQTT pipe: closes pump + subscriptions
	}
	closeSource(h.src)
	h.src, h.drive, h.home = nil, nil, nil
}

// closeSource releases a source's resources when it holds any.
func closeSource(src stream.Source) {
	if c, ok := src.(io.Closer); ok {
		c.Close()
	}
}

// yield hands a home back to the scheduler at a day boundary. During a
// drain it still joins the ready queue: the drain only stops dispatch.
func (sh *Shard) yield(h *homeRun) {
	h.elapsed += time.Since(h.began)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.running--
	switch {
	case h.removeReq:
		sh.discardLocked(h)
	case h.pauseReq:
		h.state = statePaused
	default:
		h.state = stateReady
		sh.ready = append(sh.ready, h)
	}
	sh.cond.Broadcast()
}

// complete finishes a home successfully. The duration is final before the
// home is journaled: it covers the last turn. The done record supersedes
// the home's journaled checkpoints, so a restart serves the result instead
// of resuming the home.
func (sh *Shard) complete(h *homeRun) {
	h.teardown()
	h.elapsed += time.Since(h.began)
	status := stream.OutcomeCompleted
	if h.failures > 0 {
		status = stream.OutcomeRetried
	}
	sh.noteDone(h, h.result, status)
	h.lastCk = nil
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.running--
	sh.resident--
	h.state = stateDone
	sh.done++
	sh.outstanding--
	sh.met.homesCompleted.Add(1)
	sh.cond.Broadcast()
}

// fail handles an attempt failure: tear the pipeline down, then either
// schedule a retry (off-worker, on a backoff timer) or quarantine the home.
// A home removed while its day ran ends removed instead, as it would had
// the day succeeded. A pipe that outlived ProgressDeadline is counted as a
// watchdog trip, and its error is wrapped so the outcome names the stall.
func (sh *Shard) fail(h *homeRun, err error) {
	if errors.Is(err, stream.ErrReceiveTimeout) {
		sh.met.watchdogTrips.Add(1)
		err = fmt.Errorf("fleetd: home %q made no day-boundary progress within %s (watchdog): %w",
			h.job.ID, sh.opts.ProgressDeadline, err)
	}
	h.teardown()
	h.elapsed += time.Since(h.began)
	sh.mu.Lock()
	sh.running--
	sh.resident--
	if h.removeReq {
		sh.discardLocked(h)
		sh.cond.Broadcast()
		sh.mu.Unlock()
		return
	}
	h.failures++
	h.err = err
	retries := 0
	if sh.opts.Recover && sh.opts.MaxRetries > 0 {
		retries = sh.opts.MaxRetries
	}
	if h.failures <= retries {
		h.state = statePending
		// A stopping shard schedules nothing and journals nothing: the home
		// stays non-terminal, so a restart resumes it from its checkpoint.
		if !sh.stopped {
			sh.met.retries.Add(1)
			delay := sh.opts.RetryBackoff.Delay(h.failures - 1)
			// The retry waits on a timer, not a worker: the home re-enters
			// the pending queue when the backoff elapses and reopens from its
			// last checkpoint on whichever worker claims it.
			sh.opts.Clock.AfterFunc(delay, func() { sh.requeue(h) })
		}
		sh.cond.Broadcast()
		sh.mu.Unlock()
		return
	}
	h.state = stateFailed
	sh.failed++
	sh.outstanding--
	sh.met.homesFailed.Add(1)
	sh.cond.Broadcast()
	sh.mu.Unlock()
	// Quarantine is terminal: journal it (off the shard lock) so a restart
	// does not resurrect a home the supervisor gave up on.
	sh.noteDone(h, stream.HomeResult{ID: h.job.ID}, stream.OutcomeQuarantined)
}

// noteDone runs the completion hook for a home reaching a terminal state.
// A hook error (a done record the journal did not take) is kept as the
// home's Err when it has none.
func (sh *Shard) noteDone(h *homeRun, res stream.HomeResult, status stream.OutcomeStatus) {
	if sh.opts.onDone == nil {
		return
	}
	if err := sh.opts.onDone(res, h.outcome(status)); err != nil && h.err == nil {
		h.err = err
	}
}

// requeue readmits a retry-scheduled home once its backoff elapses.
func (sh *Shard) requeue(h *homeRun) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.stopped || h.state != statePending {
		return
	}
	sh.pending = append(sh.pending, h)
	sh.cond.Broadcast()
}

// discardLocked finalizes a removal, releasing the pipeline of a home that
// still holds one (a ready or paused resident home).
func (sh *Shard) discardLocked(h *homeRun) {
	if h.home != nil {
		h.teardown()
		sh.resident--
	}
	h.state = stateRemoved
	sh.outstanding--
	sh.met.homesRemoved.Add(1)
}

// Pause holds a home at its next day boundary (immediately when it is not
// running). A paused home keeps its pipeline unless a drain releases it;
// Resume requeues it.
func (sh *Shard) Pause(homeID string) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	h, ok := sh.homes[homeID]
	if !ok {
		return fmt.Errorf("fleetd: unknown home %q", homeID)
	}
	return sh.pauseLocked(h)
}

func (sh *Shard) pauseLocked(h *homeRun) error {
	switch h.state {
	case stateDone, stateFailed, stateRemoved:
		return fmt.Errorf("fleetd: home %q cannot pause (terminal)", h.job.ID)
	}
	h.pauseReq = true
	// Ready/pending homes flip lazily when the dispatcher pops them;
	// running homes pause at the end of their day.
	return nil
}

// Resume lifts a pause; the home requeues where it left off. A terminal
// home has nothing to resume.
func (sh *Shard) Resume(homeID string) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	h, ok := sh.homes[homeID]
	if !ok {
		return fmt.Errorf("fleetd: unknown home %q", homeID)
	}
	switch h.state {
	case stateDone, stateFailed, stateRemoved:
		return fmt.Errorf("fleetd: home %q cannot resume (terminal)", homeID)
	}
	sh.resumeLocked(h)
	return nil
}

func (sh *Shard) resumeLocked(h *homeRun) {
	h.pauseReq = false
	if h.state != statePaused {
		return
	}
	if h.home != nil {
		h.state = stateReady
		sh.ready = append(sh.ready, h)
	} else {
		h.state = statePending
		sh.pending = append(sh.pending, h)
	}
	sh.cond.Broadcast()
}

// Remove evicts a home from the shard: an idle home is dropped at once, a
// running one when its day ends, whether that day succeeds or fails.
func (sh *Shard) Remove(homeID string) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	h, ok := sh.homes[homeID]
	if !ok {
		return fmt.Errorf("fleetd: unknown home %q", homeID)
	}
	switch h.state {
	case stateDone, stateFailed, stateRemoved:
		return fmt.Errorf("fleetd: home %q already finished", homeID)
	case stateRunning:
		h.removeReq = true // the worker discards it at yield/fail
	default:
		sh.discardLocked(h)
		sh.cond.Broadcast()
	}
	return nil
}

// Drain quiesces the shard and persists it. It only stops dispatch: running
// homes finish their day and yield as usual, and then every resident home
// is checkpointed (in memory, and into the manifest on a service with a
// state dir) and its pipeline released. A released ready home joins the
// pending queue; a paused one stays paused. A drained shard holds no live
// state; after Rehydrate each released home reopens from its drain
// checkpoint, byte-identically. Homes that fail to checkpoint are
// quarantined rather than silently lost.
func (sh *Shard) Drain() error {
	sh.mu.Lock()
	if sh.stopped {
		sh.mu.Unlock()
		return fmt.Errorf("fleetd: shard %d is stopped", sh.id)
	}
	if sh.draining {
		sh.mu.Unlock()
		return fmt.Errorf("fleetd: shard %d already draining", sh.id)
	}
	sh.draining = true
	sh.cond.Broadcast()
	for sh.running > 0 {
		sh.cond.Wait()
	}
	// Every resident home now sits at a day boundary, ready or paused
	// (dispatch is off), so checkpointing it is safe. The lock is held
	// across the finalize: the shard is quiesced anyway, and it keeps
	// concurrent admin verbs from mutating a home mid-teardown.
	for _, h := range sh.homes {
		if h.home == nil {
			continue
		}
		err := sh.checkpoint(h)
		h.teardown()
		sh.resident--
		switch {
		case err != nil:
			h.err = fmt.Errorf("fleetd: drain checkpoint: %w", err)
			h.state = stateFailed
			sh.failed++
			sh.outstanding--
			sh.met.homesFailed.Add(1)
		case h.state == stateReady:
			h.state = statePending
			sh.pending = append(sh.pending, h)
		}
	}
	sh.ready = nil
	sh.drained = true
	sh.cond.Broadcast()
	sh.mu.Unlock()
	return nil
}

// Rehydrate restarts a drained shard's dispatch: each released home
// reopens on a worker and restores from its drain checkpoint, resuming
// exactly where Drain stopped it.
func (sh *Shard) Rehydrate() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.stopped {
		return fmt.Errorf("fleetd: shard %d is stopped", sh.id)
	}
	if !sh.drained {
		return fmt.Errorf("fleetd: shard %d is not drained", sh.id)
	}
	sh.draining, sh.drained = false, false
	sh.cond.Broadcast()
	return nil
}

// WaitIdle blocks until every admitted home reached a terminal state (or
// the shard stops). Paused homes and a drained shard's homes keep the shard
// busy — they have not finished.
func (sh *Shard) WaitIdle() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for sh.outstanding > 0 && !sh.stopped {
		sh.cond.Wait()
	}
}

// stop ends the shard's dispatch without waiting: each worker finishes its
// current day and exits, and no home starts another. Idempotent.
func (sh *Shard) stop() {
	sh.mu.Lock()
	sh.stopped = true
	sh.cond.Broadcast()
	sh.mu.Unlock()
}

// finish waits for the workers of a stopped shard to exit, then
// checkpoints every still-resident home (when persist) and tears it down.
// Idempotent.
func (sh *Shard) finish(persist bool) {
	sh.wg.Wait()
	sh.mu.Lock()
	for _, h := range sh.homes {
		if h.home == nil {
			continue
		}
		if persist {
			if err := sh.checkpoint(h); err != nil && h.err == nil {
				h.err = err
			}
		}
		h.teardown()
		sh.resident--
	}
	sh.mu.Unlock()
}

// Status reports the shard's gauges.
func (sh *Shard) Status() ShardStatus {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := ShardStatus{
		Shard:    sh.id,
		Resident: sh.resident,
		Running:  sh.running,
		Done:     sh.done,
		Failed:   sh.failed,
		Drained:  sh.drained,
	}
	for _, h := range sh.homes {
		switch h.state {
		case statePending:
			st.Pending++
		case stateReady:
			st.Ready++
		case statePaused:
			st.Paused++
		}
	}
	return st
}

// Outcome reports one home's supervision record and result. The result is
// only meaningful for completed homes.
func (sh *Shard) Outcome(homeID string) (stream.HomeResult, stream.HomeOutcome, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	h, ok := sh.homes[homeID]
	if !ok {
		return stream.HomeResult{}, stream.HomeOutcome{}, false
	}
	status := OutcomeActive
	switch h.state {
	case stateDone:
		status = stream.OutcomeCompleted
		if h.failures > 0 {
			status = stream.OutcomeRetried
		}
	case stateFailed:
		status = stream.OutcomeQuarantined
	case stateRemoved:
		status = OutcomeRemoved
	}
	out := h.outcome(status)
	res := h.result
	if h.state != stateDone {
		res = stream.HomeResult{ID: h.job.ID}
	}
	return res, out, true
}

// OutcomeRemoved and OutcomeActive extend the stream outcome vocabulary
// for the long-running service: removed homes were evicted by an admin,
// active ones have not finished yet.
const (
	OutcomeRemoved stream.OutcomeStatus = "removed"
	OutcomeActive  stream.OutcomeStatus = "active"
)
