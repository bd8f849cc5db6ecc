package fleetd

import (
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/hvac"
	"github.com/acyd-lab/shatter/internal/mqtt"
	"github.com/acyd-lab/shatter/internal/scenario"
	"github.com/acyd-lab/shatter/internal/stream"
)

// specJob builds a fleet job streaming a scenario spec's world, mirroring
// the job shape core.FleetJobs assembles (construction inside Open).
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

// synthJobs builds n procedurally generated benign homes.
func synthJobs(n, days int, seed uint64) []stream.Job {
	jobs := make([]stream.Job, n)
	for i, sp := range scenario.SynthFleet(n, seed) {
		jobs[i] = specJob(sp, days, seed+uint64(i))
	}
	return jobs
}

// checkHomesEqual requires byte-identical per-home results in job order.
func checkHomesEqual(t *testing.T, got, want []stream.HomeResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d vs %d home results", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("home %s diverges:\n%+v\nvs\n%+v", want[i].ID, got[i], want[i])
		}
	}
}

// checkStatsEqual compares aggregates with wall-clock fields (and, when
// ignoreSupervision is set, the supervision counters a drain/rehydrate
// cycle legitimately changes) zeroed.
func checkStatsEqual(t *testing.T, got, want stream.FleetStats, ignoreSupervision bool) {
	t.Helper()
	zero := func(s stream.FleetStats) stream.FleetStats {
		s.Elapsed, s.HomesPerSec, s.EventsPerSec, s.BusFrames = 0, 0, 0, 0
		if ignoreSupervision {
			s.Retries, s.Restores = 0, 0
		}
		return s
	}
	if zero(got) != zero(want) {
		t.Fatalf("aggregate stats diverge:\n%+v\nvs\n%+v", got, want)
	}
}

// TestServiceMatchesRunFleet is the core equivalence gate: the multiplexed
// sharded scheduler must produce byte-identical per-home results to a
// one-shot RunFleet over the same jobs — on the A/B goldens plus synthetic
// homes, with the admission window far smaller than the fleet, over both
// the direct and the MQTT frame transport.
func TestServiceMatchesRunFleet(t *testing.T) {
	const days = 2
	var jobs []stream.Job
	for _, id := range []string{"A", "B", "studio"} {
		sp, ok := scenario.Get(id)
		if !ok {
			t.Fatalf("unknown scenario %q", id)
		}
		jobs = append(jobs, specJob(sp, days, 7))
	}
	jobs = append(jobs, synthJobs(3, days, 1234)...)

	run := func(t *testing.T, jobs []stream.Job, opts ShardOptions) {
		want, err := RunFleet(jobs, ShardOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		svc, err := NewService(Config{Shards: 2, Shard: opts})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close(false)
		if err := svc.Add(jobs); err != nil {
			t.Fatal(err)
		}
		svc.WaitIdle()
		got := svc.Result()
		checkHomesEqual(t, got.Homes, want.Homes)
		checkStatsEqual(t, got.Stats, want.Stats, false)
		for i, o := range got.Outcomes {
			if o.Status != stream.OutcomeCompleted || o.Attempts != 1 || o.Days != days {
				t.Fatalf("outcome %d: %+v", i, o)
			}
			if o.Duration <= 0 {
				t.Fatalf("outcome %s missing wall-clock duration", o.ID)
			}
		}
	}
	t.Run("direct", func(t *testing.T) {
		run(t, jobs, ShardOptions{Workers: 2, MaxResident: 2})
	})
	t.Run("mqtt", func(t *testing.T) {
		broker, err := mqtt.NewBroker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer broker.Close()
		// MQTT pipes are slow under the race detector; the three registry
		// goldens alone still cover the full frame transport path.
		run(t, jobs[:3], ShardOptions{Workers: 2, MaxResident: 2, Broker: broker.Addr()})
	})
}

// TestServiceDrainRehydrateMatchesUninterrupted stops a shard mid-run,
// verifies it holds no live pipelines, rehydrates it from the checkpoints,
// and requires the finished fleet to be byte-identical to an uninterrupted
// run — in memory, with checkpoints journaled to a state dir's manifest,
// and over MQTT.
func TestServiceDrainRehydrateMatchesUninterrupted(t *testing.T) {
	const homes, days = 16, 6
	run := func(t *testing.T, jobs []stream.Job, opts ShardOptions, stateDir string) {
		want, err := RunFleet(jobs, ShardOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		svc, err := NewService(Config{Shards: 2, Shard: opts, StateDir: stateDir})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close(false)
		if err := svc.Add(jobs); err != nil {
			t.Fatal(err)
		}
		// Let the fleet make some progress, then stop it mid-flight. The
		// wait only positions the drain somewhere inside the run (after a
		// sixth of the fleet's home-days, so a fast machine cannot finish
		// first); the byte-identical guarantee holds wherever it lands.
		for svc.met.days.Load() < homes {
			time.Sleep(100 * time.Microsecond)
		}
		for i := 0; i < 2; i++ {
			if err := svc.DrainShard(i); err != nil {
				t.Fatal(err)
			}
		}
		snap := svc.Snapshot()
		if snap.HomesActive == 0 {
			t.Fatalf("fleet finished before the drain; nothing was interrupted")
		}
		for _, sh := range snap.Shards {
			if !sh.Drained || sh.Resident != 0 || sh.Running != 0 {
				t.Fatalf("shard %d not quiesced after drain: %+v", sh.Shard, sh)
			}
		}
		for i := 0; i < 2; i++ {
			if err := svc.RehydrateShard(i); err != nil {
				t.Fatal(err)
			}
		}
		svc.WaitIdle()
		got := svc.Result()
		checkHomesEqual(t, got.Homes, want.Homes)
		checkStatsEqual(t, got.Stats, want.Stats, true)
	}
	jobs := synthJobs(homes, days, 77)
	t.Run("memory", func(t *testing.T) {
		run(t, jobs, ShardOptions{Workers: 2, MaxResident: 4}, "")
	})
	t.Run("disk", func(t *testing.T) {
		run(t, jobs, ShardOptions{Workers: 2, MaxResident: 4}, t.TempDir())
	})
	t.Run("mqtt", func(t *testing.T) {
		broker, err := mqtt.NewBroker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer broker.Close()
		// Day-block pipes move whole home-days per frame, so the MQTT variant
		// keeps pace with the direct ones and the full fleet stays fast even
		// race-instrumented; the full size keeps the drain landing mid-run.
		run(t, jobs, ShardOptions{Workers: 2, MaxResident: 4, Broker: broker.Addr()}, t.TempDir())
	})
}

// TestServiceSnapshotCountsBusFrames: each pipe counts the frames its
// receiver takes off the bus into the registry, so a clean MQTT-framed
// service reports one per home-day once idle; the direct path reports none.
func TestServiceSnapshotCountsBusFrames(t *testing.T) {
	const homes, days = 3, 2
	jobs := synthJobs(homes, days, 88)
	run := func(t *testing.T, opts ShardOptions) Snapshot {
		t.Helper()
		svc, err := NewService(Config{Shards: 2, Shard: opts})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close(false)
		if err := svc.Add(jobs); err != nil {
			t.Fatal(err)
		}
		svc.WaitIdle()
		snap := svc.Snapshot()
		if snap.Days != homes*days {
			t.Fatalf("%d days streamed, want %d", snap.Days, homes*days)
		}
		return snap
	}
	t.Run("mqtt", func(t *testing.T) {
		broker, err := mqtt.NewBroker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer broker.Close()
		if snap := run(t, ShardOptions{Workers: 2, Broker: broker.Addr()}); snap.BusFrames != snap.Days {
			t.Fatalf("%d bus frames for %d home-days", snap.BusFrames, snap.Days)
		}
	})
	t.Run("direct", func(t *testing.T) {
		if snap := run(t, ShardOptions{Workers: 2}); snap.BusFrames != 0 {
			t.Fatalf("direct path reported %d bus frames", snap.BusFrames)
		}
	})
}

// countingSource counts the day blocks read from it.
type countingSource struct {
	stream.Source
	n *atomic.Int64
}

func (c countingSource) NextBlock(dst *stream.DayBlock) error {
	c.n.Add(1)
	return c.Source.NextBlock(dst)
}

// eventually polls cond until it holds, failing the test after d.
func eventually(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// within runs f and fails the test if it does not return within d.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %s", what, d)
	}
}

// TestServiceReleasesBackedUpPausedPipe: a paused MQTT-framed home stops
// reading, but its pump keeps publishing until the subscription backs up
// and the publish blocks in a socket write. Draining the shard and closing
// the service must still tear the pipe down promptly.
func TestServiceReleasesBackedUpPausedPipe(t *testing.T) {
	for _, drain := range []bool{true, false} {
		name := "close"
		if drain {
			name = "drain"
		}
		t.Run(name, func(t *testing.T) {
			base := synthJobs(1, 100000, 91)[0]
			var read atomic.Int64
			job := stream.Job{ID: base.ID, Open: func() (stream.Source, *stream.Home, error) {
				src, h, err := base.Open()
				return countingSource{Source: src, n: &read}, h, err
			}}
			broker, err := mqtt.NewBroker("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			svc, err := NewService(Config{Shard: ShardOptions{Workers: 1, Broker: broker.Addr()}})
			if err != nil {
				broker.Close()
				t.Fatal(err)
			}
			// On a hang, closing the broker first fails the blocked write, so
			// the failing test still ends.
			defer svc.Close(false)
			defer broker.Close()
			if err := svc.Add([]stream.Job{job}); err != nil {
				t.Fatal(err)
			}
			// Pause once a day has streamed, so the home's pipe is open.
			eventually(t, 10*time.Second, "the first day", func() bool { return svc.Snapshot().Days > 0 })
			if err := svc.Pause(job.ID); err != nil {
				t.Fatal(err)
			}
			eventually(t, 10*time.Second, "the pause", func() bool { return svc.Snapshot().Shards[0].Paused == 1 })
			// The pump reads ahead until the bus backs up: wait for it to stall.
			last, still := int64(-1), 0
			eventually(t, 10*time.Second, "the pump to stall", func() bool {
				time.Sleep(50 * time.Millisecond)
				if n := read.Load(); n != last {
					last, still = n, 0
					return false
				}
				still++
				return still >= 6
			})
			if drain {
				within(t, 5*time.Second, "DrainShard", func() {
					if err := svc.DrainShard(0); err != nil {
						t.Error(err)
					}
				})
			}
			within(t, 5*time.Second, "Close(false)", func() { svc.Close(false) })
		})
	}
}

// readHold holds the first read of a job's first attempt.
type readHold struct {
	reading chan struct{} // closed when the read starts
	release chan struct{} // the test closes it to let the read go on
	fail    error         // when set, the released read returns it
}

// holdFirstRead wraps job so the first read of its first attempt signals on
// the returned hold and blocks until the test releases it; later reads and
// attempts pass straight through.
func holdFirstRead(job *stream.Job, fail error) *readHold {
	hold := &readHold{reading: make(chan struct{}), release: make(chan struct{}), fail: fail}
	open, first := job.Open, true
	job.Open = func() (stream.Source, *stream.Home, error) {
		src, h, err := open()
		if err != nil || !first {
			return src, h, err
		}
		first = false
		return &heldSource{Source: src, hold: hold}, h, nil
	}
	return hold
}

// heldSource is a first attempt's source under a readHold.
type heldSource struct {
	stream.Source
	hold *readHold
	held bool
}

func (s *heldSource) NextBlock(dst *stream.DayBlock) error {
	if !s.held {
		s.held = true
		close(s.hold.reading)
		<-s.hold.release
		if s.hold.fail != nil {
			return s.hold.fail
		}
	}
	return s.Source.NextBlock(dst)
}

// TestServicePauseResume parks one home, lets the rest of the fleet finish,
// and checks the paused home completes identically after Resume. The
// target holds its first read until Pause has returned, so it cannot
// finish before the pause lands.
func TestServicePauseResume(t *testing.T) {
	const homes, days = 4, 2
	jobs := synthJobs(homes, days, 55)
	want, err := RunFleet(jobs, ShardOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	hold := holdFirstRead(&jobs[homes-1], nil)
	svc, err := NewService(Config{Shards: 1, Shard: ShardOptions{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(false)
	target := jobs[homes-1].ID
	if err := svc.Add(jobs); err != nil {
		t.Fatal(err)
	}
	if err := svc.Pause(target); err != nil {
		t.Fatal(err)
	}
	close(hold.release)
	// The paused home must not finish while the rest of the fleet does.
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := svc.Snapshot()
		if snap.HomesCompleted == homes-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet stuck: %+v", snap)
		}
		time.Sleep(time.Millisecond)
	}
	if snap := svc.Snapshot(); snap.HomesActive != 1 {
		t.Fatalf("want exactly the paused home active, got %+v", snap)
	}
	if err := svc.Resume(target); err != nil {
		t.Fatal(err)
	}
	svc.WaitIdle()
	got := svc.Result()
	checkHomesEqual(t, got.Homes, want.Homes)
	if err := svc.Resume(target); err == nil {
		t.Fatal("resuming a finished home should error")
	}
}

// TestServiceDrainKeepsPauses: a drain only stops dispatch. It releases a
// paused home's pipeline without lifting the pause, so the shard's gauges
// still show the home paused; a home whose day ran into the drain is
// released to the pending queue and can be paused there. After Rehydrate
// and Resume both reopen from their drain checkpoints and finish as an
// uninterrupted run does.
func TestServiceDrainKeepsPauses(t *testing.T) {
	const homes, days = 3, 3
	jobs := synthJobs(homes, days, 66)
	want, err := RunFleet(jobs, ShardOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	holds := []*readHold{holdFirstRead(&jobs[0], nil), holdFirstRead(&jobs[1], nil)}
	svc, err := NewService(Config{Shard: ShardOptions{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(false)
	if err := svc.Add(jobs); err != nil {
		t.Fatal(err)
	}
	sh := svc.shards[0]
	// Home 0 pauses at the end of its first day and keeps its pipeline.
	within(t, 10*time.Second, "home 0's first read", func() { <-holds[0].reading })
	if err := svc.Pause(jobs[0].ID); err != nil {
		t.Fatal(err)
	}
	close(holds[0].release)
	eventually(t, 10*time.Second, "home 0's pause", func() bool { return sh.Status().Paused == 1 })
	// Home 1's first day is still running when the drain starts.
	within(t, 10*time.Second, "home 1's first read", func() { <-holds[1].reading })
	drained := make(chan error, 1)
	go func() { drained <- svc.DrainShard(0) }()
	eventually(t, 10*time.Second, "the drain to start", func() bool {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.draining
	})
	close(holds[1].release)
	within(t, 10*time.Second, "DrainShard", func() {
		if err := <-drained; err != nil {
			t.Error(err)
		}
	})
	if st := sh.Status(); st.Paused != 1 || st.Resident != 0 {
		t.Fatalf("after the drain: %d paused, %d resident; want 1, 0", st.Paused, st.Resident)
	}
	if err := svc.Pause(jobs[1].ID); err != nil {
		t.Fatalf("pausing a home the drain released: %v", err)
	}
	if err := svc.RehydrateShard(0); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs[:2] {
		if err := svc.Resume(j.ID); err != nil {
			t.Fatal(err)
		}
	}
	waitIdleTimeout(t, svc, time.Minute)
	checkHomesEqual(t, svc.Result().Homes, want.Homes)
}

// countedSource counts the day reads of every attempt of a job.
type countedSource struct {
	stream.Source
	reads *atomic.Int64
}

func (s countedSource) NextBlock(dst *stream.DayBlock) error {
	s.reads.Add(1)
	return s.Source.NextBlock(dst)
}

// TestServiceCloseStopsEveryShardBeforeWaiting: Close stops dispatch on
// every shard before it waits on any. Each of two shards has its one worker
// held inside a day; while Close waits on shard 0's held day, shard 1 must
// already be stopped, so its worker, once released, ends its day and starts
// no other. A Close that stopped the shards one after another would leave
// shard 1 dispatching until shard 0's hold is released.
func TestServiceCloseStopsEveryShardBeforeWaiting(t *testing.T) {
	const homes, days = 4, 3
	jobs := synthJobs(homes, days, 88)
	// Homes are assigned round-robin: even indices to shard 0, odd to 1.
	holds := []*readHold{holdFirstRead(&jobs[0], nil), holdFirstRead(&jobs[1], nil)}
	var shard1Reads atomic.Int64
	for i := 1; i < homes; i += 2 {
		open := jobs[i].Open
		jobs[i].Open = func() (stream.Source, *stream.Home, error) {
			src, h, err := open()
			return countedSource{Source: src, reads: &shard1Reads}, h, err
		}
	}
	svc, err := NewService(Config{Shards: 2, Shard: ShardOptions{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(false)
	released := make([]bool, len(holds))
	release := func(i int) {
		if !released[i] {
			released[i] = true
			close(holds[i].release)
		}
	}
	defer func() { // before the deferred Close, which waits on held days
		for i := range holds {
			release(i)
		}
	}()
	if err := svc.Add(jobs); err != nil {
		t.Fatal(err)
	}
	for i, h := range holds {
		within(t, 10*time.Second, fmt.Sprintf("shard %d's first read", i), func() { <-h.reading })
	}
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		svc.Close(false)
	}()
	sh := svc.shards[1]
	eventually(t, 10*time.Second, "shard 1 to stop while Close waits on shard 0", func() bool {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.stopped
	})
	release(1)
	eventually(t, 10*time.Second, "shard 1's held day to end", func() bool {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.running == 0
	})
	if n := shard1Reads.Load(); n != 1 {
		t.Fatalf("shard 1 read %d days before shard 0's hold was released; want only its held one", n)
	}
	release(0)
	within(t, 10*time.Second, "Close", func() { <-closed })
	if n := shard1Reads.Load(); n != 1 {
		t.Fatalf("shard 1 read %d days during Close; want only its held one", n)
	}
}

// TestServiceJournalErrorsReachOutcomes: a record the manifest cannot take
// is never dropped. With the journal closed under a running service, a
// done record's failed append lands in the home's outcome, and a
// checkpoint's fails the attempt; the snapshot counts both as journal
// errors.
func TestServiceJournalErrorsReachOutcomes(t *testing.T) {
	const homes, days = 3, 2
	// run streams the homes with the journal closed; empty homes end their
	// stream before day 0.
	run := func(t *testing.T, opts ShardOptions, empty bool) (stream.FleetResult, Snapshot) {
		t.Helper()
		release := make(chan struct{})
		factory := func(req AddRequest) ([]stream.Job, error) {
			jobs, err := synthFactory(req)
			for i := range jobs {
				open := jobs[i].Open
				jobs[i].Open = func() (stream.Source, *stream.Home, error) {
					<-release
					src, h, err := open()
					if empty {
						src = emptySource{}
					}
					return src, h, err
				}
			}
			return jobs, err
		}
		svc, err := NewService(Config{Shard: opts, StateDir: t.TempDir(), Jobs: factory})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close(false)
		if _, err := svc.AddSpec(AddRequest{Synth: homes, Seed: 19, Days: days}); err != nil {
			t.Fatal(err)
		}
		if err := svc.man.Close(); err != nil {
			t.Fatal(err)
		}
		close(release)
		waitIdleTimeout(t, svc, time.Minute)
		// A quarantine is journaled after its home turns terminal, so the
		// counters are final once the shards have stopped.
		svc.Close(false)
		return svc.Result(), svc.Snapshot()
	}
	t.Run("done", func(t *testing.T) {
		// Homes that stream no day journal only their done record.
		res, snap := run(t, ShardOptions{Workers: 2}, true)
		for _, o := range res.Outcomes {
			if o.Status != stream.OutcomeCompleted || !strings.Contains(o.Err, errManifestClosed.Error()) {
				t.Fatalf("outcome %+v does not carry the append error", o)
			}
		}
		if snap.JournalErrors != homes {
			t.Fatalf("journal errors = %d, want %d", snap.JournalErrors, homes)
		}
	})
	t.Run("checkpoint", func(t *testing.T) {
		res, snap := run(t, ShardOptions{Workers: 2, Recover: true, MaxRetries: 1,
			RetryBackoff: mqtt.Backoff{Base: time.Millisecond, Max: time.Millisecond}}, false)
		for _, o := range res.Outcomes {
			// A checkpoint the journal refused is not restored from either.
			if o.Status != stream.OutcomeQuarantined || o.Attempts != 2 || o.Restores != 0 || o.Days != 1 ||
				!strings.Contains(o.Err, errManifestClosed.Error()) {
				t.Fatalf("outcome %+v: want quarantined after two attempts failed their day-1 checkpoint", o)
			}
		}
		// Two failed checkpoints and one failed done record per home.
		if snap.JournalErrors != 3*homes || snap.Checkpoints != 0 {
			t.Fatalf("journal errors = %d, checkpoints = %d; want %d and 0", snap.JournalErrors, snap.Checkpoints, 3*homes)
		}
	})
}

// emptySource ends its stream before the first day.
type emptySource struct{}

func (emptySource) NextBlock(*stream.DayBlock) error { return io.EOF }

// TestShardAdmissionWindow checks backpressure: live pipelines never exceed
// MaxResident even with the whole fleet admitted at once.
func TestShardAdmissionWindow(t *testing.T) {
	const homes, maxResident = 12, 2
	svc, err := NewService(Config{Shards: 1, Shard: ShardOptions{Workers: 2, MaxResident: maxResident}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(false)
	if err := svc.Add(synthJobs(homes, 1, 31)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		svc.WaitIdle()
		close(done)
	}()
	for {
		select {
		case <-done:
			snap := svc.Snapshot()
			if snap.HomesCompleted != homes {
				t.Fatalf("completed %d of %d homes: %+v", snap.HomesCompleted, homes, snap)
			}
			return
		default:
			if st := svc.shards[0].Status(); st.Resident > maxResident {
				t.Fatalf("admission window breached: %+v", st)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// flakySource fails its stream with a transport error at the given absolute
// day, passing everything else through. SeekDay keeps the day counter
// absolute, so a restored attempt hits the same failure point again.
type flakySource struct {
	src    stream.Source
	failAt int
	n      int
}

func (f *flakySource) NextBlock(dst *stream.DayBlock) error {
	if f.n == f.failAt {
		return errors.New("flaky transport: connection lost")
	}
	f.n++
	return f.src.NextBlock(dst)
}

func (f *flakySource) SeekDay(day int) error {
	s, ok := f.src.(stream.DaySeeker)
	if !ok {
		return fmt.Errorf("flaky source cannot seek")
	}
	if err := s.SeekDay(day); err != nil {
		return err
	}
	f.n = day
	return nil
}

// flakyJob wraps a spec job so the given attempts fail on day 2: attempt
// indexes below cleanFrom lose the connection at day index 1 (past the
// day-1 checkpoint boundary), later attempts run clean.
func flakyJob(sp scenario.Spec, days int, seed uint64, cleanFrom int) stream.Job {
	base := specJob(sp, days, seed)
	attempt := 0
	return stream.Job{ID: base.ID, Open: func() (stream.Source, *stream.Home, error) {
		src, h, err := base.Open()
		if err != nil {
			return nil, nil, err
		}
		a := attempt
		attempt++
		if a < cleanFrom {
			return &flakySource{src: src, failAt: 1}, h, nil
		}
		return src, h, nil
	}}
}

// TestShardRetryAndQuarantine drives the supervision path: a flaky home
// retries from its day-1 checkpoint and completes; a persistently failing
// home exhausts the budget and is quarantined without sinking the fleet.
func TestShardRetryAndQuarantine(t *testing.T) {
	const days = 2
	specs := scenario.SynthFleet(3, 404)
	jobs := []stream.Job{
		flakyJob(specs[0], days, 11, 1),  // one bad attempt, then clean
		flakyJob(specs[1], days, 12, 99), // every attempt fails
		specJob(specs[2], days, 13),
	}
	svc, err := NewService(Config{Shards: 1, Shard: ShardOptions{
		Workers:      2,
		Recover:      true,
		MaxRetries:   2,
		RetryBackoff: mqtt.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(false)
	if err := svc.Add(jobs); err != nil {
		t.Fatal(err)
	}
	svc.WaitIdle()
	res := svc.Result()
	byID := map[string]stream.HomeOutcome{}
	for _, o := range res.Outcomes {
		byID[o.ID] = o
	}
	flaky := byID[specs[0].ID]
	if flaky.Status != stream.OutcomeRetried || flaky.Attempts != 2 || flaky.Restores != 1 || flaky.Days != days {
		t.Fatalf("flaky outcome: %+v", flaky)
	}
	dead := byID[specs[1].ID]
	if dead.Status != stream.OutcomeQuarantined || dead.Attempts != 3 || !strings.Contains(dead.Err, "flaky transport") {
		t.Fatalf("quarantined outcome: %+v", dead)
	}
	if dead.Days != 1 {
		t.Fatalf("quarantined home's day progress = %d, want 1 (failed mid-day-2)", dead.Days)
	}
	clean := byID[specs[2].ID]
	if clean.Status != stream.OutcomeCompleted || clean.Attempts != 1 {
		t.Fatalf("clean outcome: %+v", clean)
	}
	if res.Stats.Quarantined != 1 || res.Stats.Retries != 3 || res.Stats.Restores < 1 {
		t.Fatalf("aggregate supervision counters: %+v", res.Stats)
	}
}

// poisonSource overwrites one outdoor temperature of one day with a
// non-finite value, passing everything else through; SeekDay delegates, so
// every restored attempt meets the same poisoned day.
type poisonSource struct {
	stream.Source
	day int
}

func (p *poisonSource) NextBlock(dst *stream.DayBlock) error {
	if err := p.Source.NextBlock(dst); err != nil {
		return err
	}
	if dst.Day == p.day {
		dst.TempF[700] = math.NaN()
	}
	return nil
}

func (p *poisonSource) SeekDay(day int) error {
	s, ok := p.Source.(stream.DaySeeker)
	if !ok {
		return fmt.Errorf("poison source cannot seek")
	}
	return s.SeekDay(day)
}

// TestRunFleetQuarantinesPoisonedWeather: a home whose source emits a NaN
// outdoor temperature on day 1 must be quarantined with the weather
// rejection as its reason, while the other home completes — also with the
// deprecated AsyncCheckpoints option set, which must change nothing.
// Unchecked, the NaN reached the bill: with the old async checkpoint sink
// the home completed with a NaN cost, with synchronous checkpoint files it
// was quarantined as a checkpoint encoding failure.
func TestRunFleetQuarantinesPoisonedWeather(t *testing.T) {
	const days = 3
	specs := scenario.SynthFleet(2, 505)
	for _, async := range []bool{false, true} {
		poisoned := specJob(specs[0], days, 21)
		open := poisoned.Open
		poisoned.Open = func() (stream.Source, *stream.Home, error) {
			src, h, err := open()
			if err != nil {
				return nil, nil, err
			}
			return &poisonSource{Source: src, day: 1}, h, nil
		}
		res, err := RunFleet([]stream.Job{poisoned, specJob(specs[1], days, 22)}, ShardOptions{
			Workers:          2,
			Recover:          true,
			MaxRetries:       2,
			RetryBackoff:     mqtt.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
			AsyncCheckpoints: async,
		})
		if err != nil {
			t.Fatalf("async=%v: %v", async, err)
		}
		byID := map[string]stream.HomeOutcome{}
		for _, o := range res.Outcomes {
			byID[o.ID] = o
		}
		dead := byID[specs[0].ID]
		if dead.Status != stream.OutcomeQuarantined || dead.Attempts != 3 || dead.Days != 1 ||
			!strings.Contains(dead.Err, stream.ErrBadBlockWeather.Error()) {
			t.Fatalf("async=%v: poisoned home outcome %+v", async, dead)
		}
		if clean := byID[specs[1].ID]; clean.Status != stream.OutcomeCompleted || clean.Days != days {
			t.Fatalf("async=%v: clean home outcome %+v", async, clean)
		}
		for _, h := range res.Homes {
			if h.ID == specs[1].ID && (math.IsNaN(h.Sim.TotalCostUSD) || h.Sim.TotalCostUSD <= 0) {
				t.Fatalf("async=%v: clean home bill %v", async, h.Sim.TotalCostUSD)
			}
		}
	}
}

// TestServiceChaosMatchesRunFleet locks the service's supervised chaos path
// to RunFleet's: same seeded fault schedule, checkpoints in memory for
// RunFleet and journaled to a state dir for the service, so the retry
// sequence — and therefore every result and outcome counter — must
// coincide exactly.
func TestServiceChaosMatchesRunFleet(t *testing.T) {
	const homes, days = 6, 2
	jobs := synthJobs(homes, days, 909)
	// Block-scale probabilities: each 2-day home publishes two day frames
	// per attempt, so per-frame rates must be large to force retries.
	chaos := &stream.FaultConfig{
		Seed: 909, Drop: 0.2, Duplicate: 0.2, Corrupt: 0.1,
		Disconnect: 0.1, MaxDelay: time.Microsecond,
	}
	want, err := RunFleet(jobs, ShardOptions{
		Workers: 2, Recover: true, Chaos: chaos,
		RetryBackoff: mqtt.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(Config{Shards: 2, StateDir: t.TempDir(), Shard: ShardOptions{
		Workers: 2, Recover: true, Chaos: chaos,
		RetryBackoff: mqtt.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(false)
	if err := svc.Add(jobs); err != nil {
		t.Fatal(err)
	}
	svc.WaitIdle()
	got := svc.Result()
	checkHomesEqual(t, got.Homes, want.Homes)
	checkStatsEqual(t, got.Stats, want.Stats, false)
	for i := range got.Outcomes {
		g, w := got.Outcomes[i], want.Outcomes[i]
		g.Duration, w.Duration = 0, 0
		if g != w {
			t.Fatalf("outcome %s diverges:\n%+v\nvs\n%+v", w.ID, g, w)
		}
	}
	if want.Stats.Retries == 0 {
		t.Fatalf("fixture too tame — chaos never forced a retry: %+v", want.Stats)
	}
}

// TestServiceChaosVirtualClockAsyncCheckpoints: the service's fast chaos
// configuration — virtual clock for delay faults and retry timers, with the
// deprecated AsyncCheckpoints option set — must produce results
// byte-identical to the plain wall-clock run. Both journal their
// checkpoints to a state dir.
func TestServiceChaosVirtualClockAsyncCheckpoints(t *testing.T) {
	const homes, days = 6, 2
	jobs := synthJobs(homes, days, 909)
	chaos := &stream.FaultConfig{
		Seed: 909, Drop: 0.2, Duplicate: 0.2, Delay: 0.15, Corrupt: 0.1,
		Disconnect: 0.1, MaxDelay: 200 * time.Microsecond,
	}
	run := func(clock stream.Clock, async bool) stream.FleetResult {
		t.Helper()
		svc, err := NewService(Config{Shards: 2, StateDir: t.TempDir(), Shard: ShardOptions{
			Workers: 2, Recover: true, Chaos: chaos,
			Clock: clock, AsyncCheckpoints: async,
			RetryBackoff: mqtt.Backoff{Base: 10 * time.Millisecond, Max: 40 * time.Millisecond},
		}})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close(false)
		if err := svc.Add(jobs); err != nil {
			t.Fatal(err)
		}
		svc.WaitIdle()
		return svc.Result()
	}
	vc := stream.NewVirtualClock()
	fast := run(vc, true)
	plain := run(nil, false)
	checkHomesEqual(t, fast.Homes, plain.Homes)
	checkStatsEqual(t, fast.Stats, plain.Stats, false)
	for i := range fast.Outcomes {
		g, w := fast.Outcomes[i], plain.Outcomes[i]
		g.Duration, w.Duration = 0, 0
		if g != w {
			t.Fatalf("outcome %s diverges:\n%+v\nvs\n%+v", w.ID, g, w)
		}
	}
	if plain.Stats.Retries == 0 {
		t.Fatalf("fixture too tame: %+v", plain.Stats)
	}
	if vc.Advanced() == 0 {
		t.Fatal("virtual clock recorded no skipped waits")
	}
}

// TestServiceRemove evicts one pending and one mid-run home; the rest of
// the fleet finishes and the removed homes report the removed outcome.
func TestServiceRemove(t *testing.T) {
	const homes, days = 6, 2
	jobs := synthJobs(homes, days, 21)
	svc, err := NewService(Config{Shards: 1, Shard: ShardOptions{Workers: 1, MaxResident: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(false)
	if err := svc.Add(jobs); err != nil {
		t.Fatal(err)
	}
	// The last home sits beyond the admission window: removing it drops it
	// before it ever opens.
	if err := svc.Remove(jobs[homes-1].ID); err != nil {
		t.Fatal(err)
	}
	svc.WaitIdle()
	res := svc.Result()
	removed := 0
	for _, o := range res.Outcomes {
		if o.Status == OutcomeRemoved {
			removed++
		}
	}
	if removed != 1 {
		t.Fatalf("removed %d homes, want 1: %+v", removed, res.Outcomes)
	}
	// The removed home never opened, so it adds no retry (nor a negative
	// one) to the fleet's count.
	if res.Stats.Retries != 0 {
		t.Fatalf("fleet counts %d retries without a failure, want 0", res.Stats.Retries)
	}
	if got := svc.Snapshot(); got.HomesCompleted != homes-1 || got.HomesRemoved != 1 {
		t.Fatalf("snapshot after removal: %+v", got)
	}
	if err := svc.Remove(jobs[0].ID); err == nil {
		t.Fatalf("removing a finished home should error")
	}
}

// TestServiceRemoveRunningHomeThatFails: a home removed while its day runs
// ends removed even when that day fails. It is neither retried nor
// quarantined, so its outcome agrees with the remove an admin journaled.
func TestServiceRemoveRunningHomeThatFails(t *testing.T) {
	jobs := synthJobs(1, 2, 42)
	hold := holdFirstRead(&jobs[0], errors.New("transport lost"))
	svc, err := NewService(Config{Shard: ShardOptions{Workers: 1, Recover: true,
		RetryBackoff: mqtt.Backoff{Base: time.Millisecond, Max: time.Millisecond}}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(false)
	if err := svc.Add(jobs); err != nil {
		t.Fatal(err)
	}
	within(t, 10*time.Second, "the first read", func() { <-hold.reading })
	if err := svc.Remove(jobs[0].ID); err != nil {
		t.Fatal(err)
	}
	close(hold.release)
	waitIdleTimeout(t, svc, time.Minute)
	if o := svc.Result().Outcomes[0]; o.Status != OutcomeRemoved {
		t.Fatalf("outcome %q, want %q", o.Status, OutcomeRemoved)
	}
	if snap := svc.Snapshot(); snap.HomesRemoved != 1 || snap.HomesFailed != 0 || snap.Retries != 0 {
		t.Fatalf("%d removed, %d failed, %d retries; want 1, 0, 0", snap.HomesRemoved, snap.HomesFailed, snap.Retries)
	}
}

// TestServiceControlPlane exercises the full MQTT admin loop: add through
// the job factory, status, pause/resume, drain/rehydrate, the metrics
// broadcast, and stop.
func TestServiceControlPlane(t *testing.T) {
	broker, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()
	const days = 1
	factory := func(req AddRequest) ([]stream.Job, error) {
		if req.Synth <= 0 {
			return nil, fmt.Errorf("test factory wants synth > 0")
		}
		jobs := synthJobs(req.Synth, days, req.Seed)
		for i := range jobs {
			if req.Prefix != "" {
				jobs[i].ID = req.Prefix + jobs[i].ID
			}
		}
		return jobs, nil
	}
	svc, err := NewService(Config{
		Shards:       2,
		Shard:        ShardOptions{Workers: 1},
		Broker:       broker.Addr(),
		MetricsEvery: 20 * time.Millisecond,
		Jobs:         factory,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(false)

	a, err := NewAdmin(broker.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	feed, err := a.Watch()
	if err != nil {
		t.Fatal(err)
	}
	n, err := a.Add(AddRequest{Synth: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("added %d homes, want 4", n)
	}
	if _, err := a.Add(AddRequest{Synth: 4, Seed: 5}); err == nil {
		t.Fatal("duplicate add should fail without a prefix")
	}
	if n, err = a.Add(AddRequest{Synth: 2, Seed: 5, Prefix: "again-"}); err != nil || n != 2 {
		t.Fatalf("prefixed re-add: n=%d err=%v", n, err)
	}
	if err := a.Pause("no-such-home"); err == nil {
		t.Fatal("pausing an unknown home should fail")
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		snap, err := a.Status()
		if err != nil {
			t.Fatal(err)
		}
		if snap.HomesCompleted == 6 {
			if len(snap.Shards) != 2 || snap.HomesAdded != 6 || snap.Slots != 6*int64(aras.SlotsPerDay) {
				t.Fatalf("status snapshot: %+v", snap)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never finished: %+v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := a.Drain(0); err != nil {
		t.Fatal(err)
	}
	if err := a.Drain(7); err == nil {
		t.Fatal("draining an out-of-range shard should fail")
	}
	if err := a.Rehydrate(0); err != nil {
		t.Fatal(err)
	}
	select {
	case snap, ok := <-feed:
		if !ok {
			t.Fatal("metrics feed closed early")
		}
		if snap.HomesAdded == 0 {
			t.Fatalf("metrics broadcast missing counters: %+v", snap)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no metrics broadcast arrived")
	}
	if err := a.Stop(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-svc.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("stop request never tripped Done")
	}
}

// TestShardWorkerDeterminism pins Workers=1 ≡ Workers=N through the
// multiplexed scheduler.
func TestShardWorkerDeterminism(t *testing.T) {
	const homes, days = 8, 2
	jobs := synthJobs(homes, days, 61)
	run := func(workers int) stream.FleetResult {
		t.Helper()
		svc, err := NewService(Config{Shards: 2, Shard: ShardOptions{Workers: workers, MaxResident: 3}})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close(false)
		if err := svc.Add(jobs); err != nil {
			t.Fatal(err)
		}
		svc.WaitIdle()
		return svc.Result()
	}
	seq, par := run(1), run(4)
	checkHomesEqual(t, par.Homes, seq.Homes)
	checkStatsEqual(t, par.Stats, seq.Stats, false)
}
