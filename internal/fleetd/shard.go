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

// ShardOptions configures a fleet run: one shard's workers, supervision,
// and transport. It is the only fleet options type — the service gives
// every shard a copy, RunFleet runs one shard to idle, and
// core.StreamOptions embeds it. The zero value runs one worker per CPU,
// each driving one home at a time, over direct (in-process) frame transport
// with no supervision.
type ShardOptions struct {
	// Workers is the shard's worker-goroutine count; 0 selects one per CPU.
	// It is also the bound on live pipelines: a home holds pipeline state
	// only while a worker drives it, and the rest wait unopened.
	Workers int
	// Deprecated: a shard holds at most Workers live pipelines, and this
	// option is ignored.
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
	// statePending: holding no pipeline state and waiting for a worker —
	// freshly added, released at a day boundary by a drain or a stop, or
	// (off the queue until its timer fires) awaiting a retry.
	statePending homeState = iota
	// stateRunning: a worker holds the home's pipeline and drives it.
	stateRunning
	// statePaused: explicitly paused, holding no pipeline state.
	statePaused
	// stateDone, stateFailed, stateRemoved are terminal.
	stateDone
	stateFailed
	stateRemoved
)

// homeRun is one home's scheduling record. Pipeline fields (src, drive,
// home, days, …) are only touched by the worker driving the home or, for
// idle homes, under the shard lock — a home is never on two workers at
// once, and it holds a pipeline only while a worker drives it.
type homeRun struct {
	job   stream.Job
	state homeState

	src   stream.Source // as returned by job.Open (owns real resources)
	drive stream.Source // transport-wrapped source the worker pulls

	home *stream.Home
	days int // completed days

	attempts int  // openings that started an attempt (the chaos plan's key)
	opens    int  // every opening (the MQTT pipe's epoch)
	released bool // released at a day boundary: the next opening continues the attempt
	failures int
	restores int
	lastCk   *stream.Checkpoint // newest day-boundary checkpoint
	ckDay    int                // highest day boundary ever checkpointed

	pauseReq  bool
	removeReq bool
	err       error
	result    stream.HomeResult
	elapsed   time.Duration // driven time of finished runs
	began     time.Time     // start of the current run
}

// outcome assembles the home's supervision record. Callers own the home
// (its worker, or the shard lock for idle homes).
func (h *homeRun) outcome(status stream.OutcomeStatus) stream.HomeOutcome {
	out := stream.HomeOutcome{
		ID:       h.job.ID,
		Status:   status,
		Attempts: h.attempts,
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

// Shard runs homes on a small worker pool, each until it is released: a
// worker claims a pending home, opens its pipeline and drives it day after
// day until its stream ends or its attempt fails. Once per day boundary,
// under the shard lock, the worker checks for a pause, removal, drain or
// stop; when one stands it releases the home there — the pipeline is torn
// down and the newest checkpoint kept — so a home is either on a worker or
// holds nothing, and live pipelines (injector→detector→controller state)
// never outnumber workers. A released home reopens from its checkpoint.
type Shard struct {
	id   int
	opts ShardOptions
	met  *Metrics

	mu      sync.Mutex
	cond    *sync.Cond
	homes   map[string]*homeRun
	pending []*homeRun
	// running counts the homes on a worker right now; outstanding the homes
	// not yet in a terminal state.
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

// worker is one scheduling loop: claim a pending home, run it until it ends
// or is released, repeat. The day-block buffer is reused across homes
// (sources size it per home).
func (sh *Shard) worker() {
	defer sh.wg.Done()
	var blk stream.DayBlock
	for {
		h := sh.next()
		if h == nil {
			return
		}
		sh.run(h, &blk)
	}
}

// next blocks until a pending home can be claimed or the shard stops.
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

// claimLocked pops the next pending home under the shard lock. Queue
// entries whose state moved on since they were enqueued (removed) are stale
// and skipped; a home paused while it waited turns paused here.
func (sh *Shard) claimLocked() *homeRun {
	for len(sh.pending) > 0 {
		h := sh.pending[0]
		sh.pending = sh.pending[1:]
		switch {
		case h.state != statePending:
			// stale entry
		case h.pauseReq:
			h.state = statePaused
		default:
			h.state = stateRunning
			sh.running++
			return h
		}
	}
	return nil
}

// run drives a claimed home day after day until its stream ends, its
// attempt fails, or a request stands at a day boundary and the home is
// released.
func (sh *Shard) run(h *homeRun, blk *stream.DayBlock) {
	h.began = time.Now()
	err := sh.open(h)
	for err == nil {
		var end bool
		if end, err = sh.day(h, blk); end {
			sh.complete(h)
			return
		}
		if err == nil && sh.interrupted(h) {
			if err = sh.release(h); err == nil {
				return
			}
		}
	}
	sh.fail(h, err)
}

// day advances a home by one day, with a day-boundary checkpoint when the
// shard is supervised and event metrics from IngestDay's accounting. end
// reports the end of the stream, the home's result taken.
func (sh *Shard) day(h *homeRun, blk *stream.DayBlock) (end bool, err error) {
	if pipe, ok := h.drive.(*stream.Pipe); ok {
		at := pipe.Frames()
		err = pipe.NextBlock(blk)
		sh.met.busFrames.Add(pipe.Frames() - at)
	} else {
		err = h.drive.NextBlock(blk)
	}
	if err == io.EOF {
		h.result, err = h.home.Close()
		return err == nil, err
	}
	if err != nil {
		return false, err
	}
	st, err := h.home.IngestDay(blk)
	if err != nil {
		return false, err
	}
	sh.met.sensorEvents.Add(st.SensorEvents)
	sh.met.actionEvents.Add(st.ActionEvents)
	sh.met.verdicts.Add(st.Verdicts)
	sh.met.anomalies.Add(st.Anomalies)
	h.days = blk.Day + 1
	sh.met.days.Add(1)
	if sh.opts.supervised() {
		return false, sh.checkpoint(h)
	}
	return false, nil
}

// open builds (or rebuilds) a home's pipeline on the claiming worker: open →
// restore from the newest checkpoint → wire the transport. A first opening,
// or one after a failure, starts an attempt and counts its restore; an
// opening after a release continues the released attempt.
func (sh *Shard) open(h *homeRun) error {
	fresh := !h.released
	h.released = false
	if fresh {
		h.attempts++
	}
	h.opens++
	src, home, err := h.job.Open()
	if err != nil {
		return err
	}
	if ck := h.lastCk; ck != nil && ck.Days > 0 {
		if rerr := stream.RestoreFrom(src, home, ck); rerr == nil {
			h.days = ck.Days
			if fresh {
				h.restores++
				sh.met.restores.Add(1)
			}
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
	drive := stream.NewFaultSource(src, sh.opts.Chaos.Plan(h.job.ID, h.attempts-1), sh.opts.Clock)
	if sh.opts.Broker != "" {
		pipe, perr := stream.OpenPipeOptions(sh.opts.Broker, stream.SensorTopic(h.job.ID), drive, stream.PipeOptions{
			ReceiveTimeout: sh.opts.ProgressDeadline,
			// Every opening takes a new epoch: a released pipe's tail may
			// still be flushing out of the broker.
			Epoch: h.opens - 1,
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

// checkpoint snapshots a home at its current day boundary. On a service with
// a state dir it is first journaled to the manifest, synchronously, so a
// restarted process resumes the home here; only then does it become the
// in-memory checkpoint that retries and released homes reopen from — which
// therefore always equals the journal's newest.
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

// interrupted reports whether a pause, removal, drain or stop stands at the
// home's day boundary — the one shard-lock round trip of a home-day.
func (sh *Shard) interrupted(h *homeRun) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return h.pauseReq || h.removeReq || sh.draining || sh.stopped
}

// release lets a home go at a day boundary. An unsupervised shard first
// keeps an in-memory checkpoint (a supervised one took it with the day);
// the pipeline is torn down off the lock, and the home ends removed, paused
// or pending, by whichever request stands once the lock is retaken. A
// checkpoint that fails is returned, and the home takes the fault path.
func (sh *Shard) release(h *homeRun) error {
	if !sh.opts.supervised() {
		if err := sh.checkpoint(h); err != nil {
			return fmt.Errorf("fleetd: release checkpoint: %w", err)
		}
	}
	h.teardown()
	h.released = true
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
		h.state = statePending
		sh.pending = append(sh.pending, h)
	}
	sh.cond.Broadcast()
	return nil
}

// complete finishes a home successfully. The duration is final before the
// home is journaled: it covers the last run. The done record supersedes
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

// discardLocked finalizes the removal of an idle home, which holds no
// pipeline.
func (sh *Shard) discardLocked(h *homeRun) {
	h.state = stateRemoved
	sh.outstanding--
	sh.met.homesRemoved.Add(1)
}

// Pause holds a home at its next day boundary (at once when it is not
// running): a running home is released there, its pipeline torn down, so a
// paused home holds nothing. Resume makes it pending again, and its next
// opening restores its checkpoint.
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
	// Pending homes turn paused when a worker pops them; running homes are
	// released at the end of their day.
	return nil
}

// Resume lifts a pause: a paused home becomes pending and reopens where it
// left off. A terminal home has nothing to resume.
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
	case statePaused:
		h.state = statePending
		sh.pending = append(sh.pending, h)
		sh.cond.Broadcast()
	}
	h.pauseReq = false
	return nil
}

// Remove evicts a home from the shard: an idle home is dropped at once, a
// running one at the end of its day, whether that day succeeds or fails.
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
		h.removeReq = true // its worker discards it at release or fail
	default:
		sh.discardLocked(h)
		sh.cond.Broadcast()
	}
	return nil
}

// Drain quiesces the shard. It only stops dispatch: each running home is
// released at the end of its day and joins the pending queue, and a paused
// home stays paused. Drain returns once no worker holds a home, so a
// drained shard holds no live pipeline state. Each released home keeps its
// newest day-boundary checkpoint (journaled with its day on a service with
// a state dir) and after Rehydrate reopens from it, byte-identically.
func (sh *Shard) Drain() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.stopped {
		return fmt.Errorf("fleetd: shard %d is stopped", sh.id)
	}
	if sh.draining {
		return fmt.Errorf("fleetd: shard %d already draining", sh.id)
	}
	sh.draining = true
	for sh.running > 0 {
		sh.cond.Wait()
	}
	sh.drained = true
	return nil
}

// Rehydrate restarts a drained shard's dispatch: each released home
// reopens on a worker and restores from its checkpoint, resuming exactly
// where Drain stopped it.
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

// stop ends the shard's dispatch without waiting: each worker releases its
// home at the end of its current day and exits, and no home starts another,
// so once wg is done the shard holds no pipeline. Idempotent.
func (sh *Shard) stop() {
	sh.mu.Lock()
	sh.stopped = true
	sh.cond.Broadcast()
	sh.mu.Unlock()
}

// Status reports the shard's gauges.
func (sh *Shard) Status() ShardStatus {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := ShardStatus{
		Shard:   sh.id,
		Running: sh.running,
		Done:    sh.done,
		Failed:  sh.failed,
		Drained: sh.drained,
	}
	for _, h := range sh.homes {
		switch h.state {
		case statePending:
			st.Pending++
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
