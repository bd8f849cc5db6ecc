package fleetd

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/acyd-lab/shatter/internal/mqtt"
	"github.com/acyd-lab/shatter/internal/scenario"
	"github.com/acyd-lab/shatter/internal/stream"
)

// synthFactory is a deterministic JobFactory over the synthetic fleet —
// replaying the same AddRequest always resolves the same jobs, which is the
// property manifest replay depends on.
func synthFactory(req AddRequest) ([]stream.Job, error) {
	jobs := synthJobs(req.Synth, req.Days, req.Seed)
	for i := range jobs {
		jobs[i].ID = req.Prefix + jobs[i].ID
	}
	return jobs, nil
}

// waitIdleTimeout bounds WaitIdle so a recovery bug fails the test instead
// of hanging it.
func waitIdleTimeout(t *testing.T, svc *Service, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		svc.WaitIdle()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("fleet never went idle: %+v", svc.Snapshot())
	}
}

// TestServiceCrashRestartMatchesUninterrupted is the crash-injection gate:
// a service killed without drain (Close(false) drops every in-flight home
// exactly as a kill -9 would — no persistence pass, only the day-boundary
// checkpoints already on disk) and restarted on the same state dir must
// finish with per-home results byte-identical to an uninterrupted run.
func TestServiceCrashRestartMatchesUninterrupted(t *testing.T) {
	run := func(t *testing.T, homes, days int, mqttFrames bool) {
		req := AddRequest{Synth: homes, Seed: 42, Days: days}
		jobs, err := synthFactory(req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunFleet(jobs, ShardOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}

		var broker *mqtt.Broker
		if mqttFrames {
			broker, err = mqtt.NewBroker("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer broker.Close()
		}
		stateDir := t.TempDir()
		boot := func() *Service {
			t.Helper()
			opts := ShardOptions{Workers: 2, MaxResident: 3, Recover: true,
				RetryBackoff: mqtt.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond}}
			if mqttFrames {
				opts.Broker = broker.Addr()
				opts.Dial = mqtt.DialOptions{Redial: true}
			}
			svc, err := NewService(Config{Shards: 2, Shard: opts, StateDir: stateDir, Jobs: synthFactory})
			if err != nil {
				t.Fatal(err)
			}
			return svc
		}

		svc := boot()
		if n, err := svc.AddSpec(req); err != nil || n != homes {
			t.Fatalf("AddSpec: n=%d err=%v", n, err)
		}
		kills := 0
		for {
			// Randomized-by-scheduling kill points: the sleep lands the kill
			// wherever the fleet happens to be; correctness may not depend on
			// where. The window widens with each kill so progress always
			// outpaces the replay overhead.
			time.Sleep(time.Duration(4+4*kills) * time.Millisecond)
			if svc.Snapshot().HomesActive == 0 {
				break
			}
			svc.Close(false) // kill: no drain, no persistence pass
			kills++
			if kills > 100 {
				t.Fatalf("fleet makes no progress across restarts: %+v", svc.Snapshot())
			}
			svc = boot()
			done, live := svc.Resumed()
			if done+live != homes {
				t.Fatalf("restart %d resumed %d+%d homes, want %d", kills, done, live, homes)
			}
		}
		defer svc.Close(false)
		if kills < 2 {
			t.Fatalf("fleet finished after only %d kills; fixture too small to exercise recovery", kills)
		}
		waitIdleTimeout(t, svc, 2*time.Minute)
		got := svc.Result()
		checkHomesEqual(t, got.Homes, want.Homes)
		checkStatsEqual(t, got.Stats, want.Stats, true)
		if got.Stats.Quarantined != 0 {
			t.Fatalf("crash-restart quarantined homes: %+v", got.Stats)
		}
	}
	t.Run("direct", func(t *testing.T) { run(t, 24, 8, false) })
	t.Run("mqtt", func(t *testing.T) { run(t, 8, 5, true) })
}

// TestServicePausePersistsAcrossRestart: an admin pause is part of the
// durable fleet shape — after a crash-restart the home is still paused, and
// resuming it completes the fleet identically.
func TestServicePausePersistsAcrossRestart(t *testing.T) {
	const homes, days = 4, 2
	req := AddRequest{Synth: homes, Seed: 55, Days: days}
	jobs, err := synthFactory(req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunFleet(jobs, ShardOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	stateDir := t.TempDir()
	boot := func() *Service {
		t.Helper()
		svc, err := NewService(Config{Shards: 1,
			Shard:    ShardOptions{Workers: 1},
			StateDir: stateDir, Jobs: synthFactory})
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	svc := boot()
	if _, err := svc.AddSpec(req); err != nil {
		t.Fatal(err)
	}
	target := jobs[homes-1].ID
	if err := svc.Pause(target); err != nil {
		t.Fatal(err)
	}
	svc.Close(false)

	svc = boot()
	defer svc.Close(false)
	// Everything except the paused home finishes.
	deadline := time.Now().Add(time.Minute)
	for {
		snap := svc.Snapshot()
		if snap.HomesCompleted == homes-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet stuck after restart: %+v", snap)
		}
		time.Sleep(time.Millisecond)
	}
	if snap := svc.Snapshot(); snap.HomesActive != 1 {
		t.Fatalf("want exactly the replayed pause active, got %+v", snap)
	}
	if err := svc.Resume(target); err != nil {
		t.Fatal(err)
	}
	waitIdleTimeout(t, svc, time.Minute)
	got := svc.Result()
	checkHomesEqual(t, got.Homes, want.Homes)
}

// TestServiceRemovedAndFinishedSurviveRestart: removed homes stay removed
// and finished homes are served from their journaled results (not re-run)
// after a restart.
func TestServiceRemovedAndFinishedSurviveRestart(t *testing.T) {
	const homes, days = 4, 1
	req := AddRequest{Synth: homes, Seed: 21, Days: days}
	jobs, err := synthFactory(req)
	if err != nil {
		t.Fatal(err)
	}
	stateDir := t.TempDir()
	boot := func() *Service {
		t.Helper()
		svc, err := NewService(Config{Shards: 1,
			Shard:    ShardOptions{Workers: 1, MaxResident: 2},
			StateDir: stateDir, Jobs: synthFactory})
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	svc := boot()
	if _, err := svc.AddSpec(req); err != nil {
		t.Fatal(err)
	}
	// The last home waits beyond the admission window; remove it outright.
	if err := svc.Remove(jobs[homes-1].ID); err != nil {
		t.Fatal(err)
	}
	waitIdleTimeout(t, svc, time.Minute)
	first := svc.Result()
	svc.Close(false)

	svc = boot()
	defer svc.Close(false)
	done, live := svc.Resumed()
	if done != homes || live != 0 {
		t.Fatalf("restart resumed %d done / %d live, want %d done", done, live, homes)
	}
	waitIdleTimeout(t, svc, time.Minute)
	second := svc.Result()
	checkHomesEqual(t, second.Homes, first.Homes)
	for i := range second.Outcomes {
		g, w := second.Outcomes[i], first.Outcomes[i]
		if g.Status != w.Status || g.Days != w.Days {
			t.Fatalf("outcome %s changed across restart:\n%+v\nvs\n%+v", w.ID, g, w)
		}
	}
	if snap := svc.Snapshot(); snap.HomesRemoved != 1 || snap.HomesCompleted != homes-1 {
		t.Fatalf("restored counters: %+v", snap)
	}
	if err := svc.Remove(jobs[0].ID); err == nil {
		t.Fatal("mutating a manifest-restored home should error")
	}
}

// TestServiceBrokerOutageChaos runs the fleet's MQTT frame transport through
// repeated broker crash/restart cycles: session-resume pipes plus supervised
// retries must land every home, byte-identical to an undisturbed run.
func TestServiceBrokerOutageChaos(t *testing.T) {
	const homes, days = 6, 5
	req := AddRequest{Synth: homes, Seed: 77, Days: days}
	jobs, err := synthFactory(req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunFleet(jobs, ShardOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	broker, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()
	svc, err := NewService(Config{Shards: 2, Shard: ShardOptions{
		Workers: 2, Recover: true, MaxRetries: 1000, CheckpointDir: t.TempDir(),
		Broker:         broker.Addr(),
		Dial:           mqtt.DialOptions{Redial: true, Backoff: mqtt.Backoff{Base: 2 * time.Millisecond, Max: 20 * time.Millisecond}},
		RetryBackoff:   mqtt.Backoff{Base: 2 * time.Millisecond, Max: 10 * time.Millisecond},
		ReceiveTimeout: 500 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(false)
	if err := svc.Add(jobs); err != nil {
		t.Fatal(err)
	}
	// One outage is guaranteed to land mid-flight: the broker goes dark the
	// moment the fleet is admitted — workers are dialing or streaming — and
	// stays down long enough that a fast machine cannot finish around it.
	broker.Suspend()
	time.Sleep(30 * time.Millisecond)
	if err := broker.Resume(); err != nil {
		t.Fatal(err)
	}
	// Then randomized outages keep cycling for the rest of the run.
	outages := stream.StartBrokerOutages(broker, stream.OutageSchedule{
		Every: 20 * time.Millisecond, Down: 15 * time.Millisecond, Seed: 5,
	}, nil)
	waitIdleTimeout(t, svc, 3*time.Minute)
	outages.Stop()
	got := svc.Result()
	if got.Stats.Retries == 0 {
		t.Fatal("fixture too tame: no home ever retried across the outages")
	}
	if got.Stats.Quarantined != 0 {
		t.Fatalf("broker chaos lost homes: %+v", got.Stats)
	}
	checkHomesEqual(t, got.Homes, want.Homes)
	checkStatsEqual(t, got.Stats, want.Stats, true)
}

// TestAdminRidesBrokerRestart covers the control plane across an outage:
// verbs fail fast (no hangs) while the broker is down, and the same Admin —
// without redialing by hand — works again once the broker is back.
func TestAdminRidesBrokerRestart(t *testing.T) {
	broker, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()
	svc, err := NewService(Config{
		Shards:       1,
		Shard:        ShardOptions{Workers: 1},
		Broker:       broker.Addr(),
		MetricsEvery: 20 * time.Millisecond,
		Jobs:         synthFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(false)
	a, err := NewAdmin(broker.Addr(), mqtt.DialOptions{
		Backoff: mqtt.Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Timeout = 2 * time.Second
	if _, err := a.Status(); err != nil {
		t.Fatal(err)
	}

	broker.Suspend()
	time.Sleep(30 * time.Millisecond) // let both sessions notice the cut
	start := time.Now()
	if _, err := a.Status(); err == nil {
		t.Fatal("status during the outage should fail")
	}
	if took := time.Since(start); took > a.Timeout+2*time.Second {
		t.Fatalf("status during the outage hung for %v", took)
	}

	if err := broker.Resume(); err != nil {
		t.Fatal(err)
	}
	// Both the admin session and the service's control plane resubscribe on
	// their own; poll until the round trip works again.
	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, err := a.Status(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("control plane never recovered after broker restart")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The full verb set works across the restart, not just status.
	if n, err := a.Add(AddRequest{Synth: 2, Seed: 3, Days: 1}); err != nil || n != 2 {
		t.Fatalf("add after restart: n=%d err=%v", n, err)
	}
	if err := a.Pause("no-such-home"); err == nil || !strings.Contains(err.Error(), "unknown home") {
		t.Fatalf("pause round trip after restart: %v", err)
	}
	deadline = time.Now().Add(time.Minute)
	for {
		snap, err := a.Status()
		if err != nil {
			t.Fatal(err)
		}
		if snap.HomesCompleted == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("post-restart fleet never finished: %+v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The metrics broadcast is alive again too.
	feed, err := a.Watch()
	if err != nil {
		t.Fatal(err)
	}
	select {
	case snap, ok := <-feed:
		if !ok || snap.HomesAdded == 0 {
			t.Fatalf("metrics broadcast dead after restart: ok=%v %+v", ok, snap)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("no metrics broadcast after broker restart")
	}
}

// stallSource streams normally until an absolute day, then blocks until
// the test releases it — the wedged-transport fixture for the liveness
// watchdog. SeekDay keeps the counter absolute, so every restored attempt
// wedges at the same place.
type stallSource struct {
	src     stream.Source
	stallAt int
	n       int
	unblock chan struct{}
}

func (s *stallSource) NextBlock(dst *stream.DayBlock) error {
	if s.n == s.stallAt {
		<-s.unblock
		return errors.New("stalled transport released")
	}
	s.n++
	return s.src.NextBlock(dst)
}

func (s *stallSource) SeekDay(day int) error {
	sk, ok := s.src.(stream.DaySeeker)
	if !ok {
		return errors.New("stall source cannot seek")
	}
	if err := sk.SeekDay(day); err != nil {
		return err
	}
	s.n = day
	return nil
}

// TestShardWatchdogQuarantinesStalledHome: a home whose transport stops
// producing day boundaries is force-failed by the progress watchdog, retried
// from its checkpoint, and — still wedged — quarantined, while the rest of
// the fleet finishes untouched.
func TestShardWatchdogQuarantinesStalledHome(t *testing.T) {
	const days = 2
	broker, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()
	specs := scenario.SynthFleet(2, 404)
	unblock := make(chan struct{})
	t.Cleanup(func() { close(unblock) }) // release wedged publisher goroutines
	base := specJob(specs[0], days, 11)
	stalled := stream.Job{ID: base.ID, Open: func() (stream.Source, *stream.Home, error) {
		src, h, err := base.Open()
		if err != nil {
			return nil, nil, err
		}
		// Wedge on day 2, past the day-1 checkpoint boundary.
		return &stallSource{src: src, stallAt: 1, unblock: unblock}, h, nil
	}}
	jobs := []stream.Job{stalled, specJob(specs[1], days, 12)}

	svc, err := NewService(Config{Shards: 1, Shard: ShardOptions{
		Workers: 2, Broker: broker.Addr(),
		Recover: true, MaxRetries: 1,
		RetryBackoff:     mqtt.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
		ProgressDeadline: 200 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(false)
	if err := svc.Add(jobs); err != nil {
		t.Fatal(err)
	}
	waitIdleTimeout(t, svc, 2*time.Minute)
	res := svc.Result()
	byID := map[string]stream.HomeOutcome{}
	for _, o := range res.Outcomes {
		byID[o.ID] = o
	}
	dead := byID[specs[0].ID]
	if dead.Status != stream.OutcomeQuarantined {
		t.Fatalf("stalled home outcome: %+v", dead)
	}
	if !strings.Contains(dead.Err, "watchdog") {
		t.Fatalf("quarantine error does not name the watchdog: %q", dead.Err)
	}
	if dead.Attempts != 2 {
		t.Fatalf("stalled home attempts = %d, want 2 (one retry from checkpoint)", dead.Attempts)
	}
	clean := byID[specs[1].ID]
	if clean.Status != stream.OutcomeCompleted {
		t.Fatalf("clean home outcome: %+v", clean)
	}
	if snap := svc.Snapshot(); snap.WatchdogTrips < 2 {
		t.Fatalf("watchdog trips = %d, want >= 2", snap.WatchdogTrips)
	}
}
