package fleetd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/acyd-lab/shatter/internal/mqtt"
	"github.com/acyd-lab/shatter/internal/scenario"
	"github.com/acyd-lab/shatter/internal/stream"
)

// closableSource records whether the shard released it.
type closableSource struct {
	stream.Source
	closed bool
}

func (c *closableSource) Close() error {
	c.closed = true
	return nil
}

// TestShardOpenClosesSourceOnPipeFailure: when OpenPipe fails (dead
// broker), the freshly opened source must still be released — the leak the
// shard's open path guards against.
func TestShardOpenClosesSourceOnPipeFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	base := synthJobs(1, 1, 5)[0]
	bsrc, h, err := base.Open()
	if err != nil {
		t.Fatal(err)
	}
	src := &closableSource{Source: bsrc}
	sh := &Shard{
		opts: ShardOptions{Broker: dead}.withDefaults(),
		met:  NewMetrics(),
	}
	hr := &homeRun{job: stream.Job{ID: "x", Open: func() (stream.Source, *stream.Home, error) { return src, h, nil }}}
	if err := sh.open(hr); err == nil {
		t.Fatal("dead broker accepted")
	}
	if !src.closed {
		t.Fatal("source leaked after OpenPipe failure")
	}
}

// TestRunFleetRetryResumesFromMemory: with Recover and no state dir, a
// home whose first attempt dies mid-day-1 resumes from the shard's
// in-memory day-boundary checkpoint and finishes byte-identical to a clean
// run.
func TestRunFleetRetryResumesFromMemory(t *testing.T) {
	const days = 3
	sp := scenario.SynthFleet(1, 606)[0]
	clean, err := RunFleet([]stream.Job{specJob(sp, days, 9)}, ShardOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFleet([]stream.Job{flakyJob(sp, days, 9, 1)}, ShardOptions{
		Workers: 1, Recover: true,
		RetryBackoff: mqtt.Backoff{Base: time.Millisecond, Max: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outcomes[0]
	if out.Status != stream.OutcomeRetried || out.Attempts != 2 || out.Restores != 1 || out.CheckpointDay < 1 {
		t.Fatalf("outcome: %+v", out)
	}
	checkHomesEqual(t, res.Homes, clean.Homes)
}

// TestRunFleetVirtualClockProgressDeadline: the progress deadline runs on
// real time, so a virtual-clock run over a broker — whose clock skips every
// wait it schedules — completes healthy homes on their first attempt,
// identical to a direct run. Every home making one attempt means no attempt
// failed, so the deadline never tripped.
func TestRunFleetVirtualClockProgressDeadline(t *testing.T) {
	jobs := synthJobs(4, 3, 31)
	direct, err := RunFleet(jobs, ShardOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	broker, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()
	got, err := RunFleet(jobs, ShardOptions{
		Workers: 2, Broker: broker.Addr(), Recover: true,
		Clock:            stream.NewVirtualClock(),
		ProgressDeadline: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Retries != 0 || got.Stats.Quarantined != 0 {
		t.Fatalf("healthy homes failed under a virtual clock: %+v", got.Outcomes)
	}
	for _, o := range got.Outcomes {
		if o.Attempts != 1 {
			t.Fatalf("home %s took %d attempts: %s", o.ID, o.Attempts, o.Err)
		}
	}
	if got.Stats.BusFrames != got.Stats.Days {
		t.Fatalf("bus moved %d frames for %d home-days", got.Stats.BusFrames, got.Stats.Days)
	}
	checkHomesEqual(t, got.Homes, direct.Homes)
	checkStatsEqual(t, got.Stats, direct.Stats, false)
}

// TestShardOptionsProgressDeadlineDefault: a supervised brokered shard
// bounds each wait for a frame at 10s unless told otherwise; unsupervised
// and direct shards wait forever.
func TestShardOptionsProgressDeadlineDefault(t *testing.T) {
	for _, c := range []struct {
		opts ShardOptions
		want time.Duration
	}{
		{ShardOptions{Recover: true, Broker: "127.0.0.1:1883"}, 10 * time.Second},
		{ShardOptions{Recover: true, Broker: "127.0.0.1:1883", ProgressDeadline: time.Minute}, time.Minute},
		{ShardOptions{Broker: "127.0.0.1:1883"}, 0},
		{ShardOptions{Recover: true}, 0},
	} {
		if got := c.opts.withDefaults().ProgressDeadline; got != c.want {
			t.Errorf("Recover=%v Broker=%q ProgressDeadline=%s: resolved %s, want %s",
				c.opts.Recover, c.opts.Broker, c.opts.ProgressDeadline, got, c.want)
		}
	}
}

// settleGoroutines waits for the goroutine count to fall back to base.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines outlive RunFleet (baseline %d):\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunFleetNoGoroutineLeak: RunFleet owns every goroutine it starts —
// shard workers, retry timers, transports — and none outlive it, whether
// the run is clean, chaotic on virtual time, or aborted by FailFast.
func TestRunFleetNoGoroutineLeak(t *testing.T) {
	backoff := mqtt.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond}
	t.Run("clean", func(t *testing.T) {
		jobs := synthJobs(6, 2, 31)
		base := runtime.NumGoroutine()
		if _, err := RunFleet(jobs, ShardOptions{Workers: 3}); err != nil {
			t.Fatal(err)
		}
		settleGoroutines(t, base)
	})
	t.Run("mqtt", func(t *testing.T) {
		broker, err := mqtt.NewBroker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer broker.Close()
		jobs := synthJobs(4, 1, 32)
		base := runtime.NumGoroutine()
		res, err := RunFleet(jobs, ShardOptions{Workers: 2, Broker: broker.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.BusFrames != res.Stats.Days {
			t.Fatalf("pipes took %d frames off the bus for %d home-days", res.Stats.BusFrames, res.Stats.Days)
		}
		settleGoroutines(t, base)
	})
	t.Run("chaos-virtual-clock", func(t *testing.T) {
		jobs := synthJobs(6, 2, 33)
		base := runtime.NumGoroutine()
		res, err := RunFleet(jobs, ShardOptions{
			Workers: 2, Recover: true, Clock: stream.NewVirtualClock(), RetryBackoff: backoff,
			Chaos: &stream.FaultConfig{Seed: 33, Drop: 0.3, Duplicate: 0.2, Delay: 0.2, Corrupt: 0.1,
				MaxDelay: time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Retries == 0 || res.Stats.Quarantined != 0 {
			t.Fatalf("chaos fixture: %+v", res.Stats)
		}
		settleGoroutines(t, base)
	})
	t.Run("failfast", func(t *testing.T) {
		sick := errors.New("sensor bus on fire")
		jobs := synthJobs(6, 2, 34)
		jobs[1] = stream.Job{ID: "sick", Open: func() (stream.Source, *stream.Home, error) {
			return nil, nil, sick
		}}
		base := runtime.NumGoroutine()
		_, err := RunFleet(jobs, ShardOptions{
			Workers: 2, Recover: true, MaxRetries: 1, FailFast: true, RetryBackoff: backoff,
		})
		if !errors.Is(err, sick) || !strings.Contains(err.Error(), "sick") {
			t.Fatalf("err = %v, want the sick home's failure", err)
		}
		settleGoroutines(t, base)
	})
}

// TestShardDurationFinalAtIdle: a home's duration is final before it is
// journaled or reported terminal — Result read straight after WaitIdle
// (under -race) matches the manifest's done records exactly.
func TestShardDurationFinalAtIdle(t *testing.T) {
	req := AddRequest{Synth: 6, Seed: 88, Days: 2}
	stateDir := t.TempDir()
	svc, err := NewService(Config{Shard: ShardOptions{Workers: 2, Recover: true},
		StateDir: stateDir, Jobs: synthFactory})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AddSpec(req); err != nil {
		svc.Close(false)
		t.Fatal(err)
	}
	waitIdleTimeout(t, svc, time.Minute)
	res := svc.Result()
	svc.Close(false)
	_, recs, err := OpenManifest(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	journaled := map[string]time.Duration{}
	for _, rec := range recs {
		if rec.Op == manifestOpDone {
			journaled[rec.Home] = rec.Outcome.Duration
		}
	}
	for _, o := range res.Outcomes {
		d, ok := journaled[o.ID]
		if !ok || o.Duration <= 0 || d != o.Duration {
			t.Fatalf("home %s: journaled duration %s (found %v), reported %s", o.ID, d, ok, o.Duration)
		}
	}
}

// gatedSource streams until an absolute day, reports that it got there,
// and fails once the test opens its gate.
type gatedSource struct {
	src     stream.Source
	at, n   int
	reached chan struct{}
	gate    chan struct{}
}

func (g *gatedSource) NextBlock(dst *stream.DayBlock) error {
	if g.n == g.at {
		close(g.reached)
		<-g.gate
		return errors.New("link lost during shutdown")
	}
	g.n++
	return g.src.NextBlock(dst)
}

// stopAtGate admits req's one home to a durable single-worker service and
// streams it through a gatedSource held at block at — by then the home has
// journaled its day-at checkpoint — then closes the service and fails the
// held block only once the shard is stopping.
// It returns a boot function that restarts the service on the same state
// dir; only the first process lifetime streams through the gate.
func stopAtGate(t *testing.T, req AddRequest, at int) (boot func() *Service, stateDir string) {
	t.Helper()
	gated := &gatedSource{at: at, reached: make(chan struct{}), gate: make(chan struct{})}
	var mu sync.Mutex
	first := true
	factory := func(req AddRequest) ([]stream.Job, error) {
		jobs, err := synthFactory(req)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		defer mu.Unlock()
		if first {
			first = false
			base := jobs[0]
			jobs[0].Open = func() (stream.Source, *stream.Home, error) {
				src, h, err := base.Open()
				gated.src = src
				return gated, h, err
			}
		}
		return jobs, nil
	}
	stateDir = t.TempDir()
	boot = func() *Service {
		t.Helper()
		svc, err := NewService(Config{Shard: ShardOptions{Workers: 1, Recover: true, MaxRetries: 3},
			StateDir: stateDir, Jobs: factory})
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	svc := boot()
	if _, err := svc.AddSpec(req); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gated.reached:
	case <-time.After(time.Minute):
		t.Fatal("home never reached the gate")
	}
	closed := make(chan struct{})
	go func() {
		svc.Close(false)
		close(closed)
	}()
	// Fail the home only once the shard is stopping.
	for sh := svc.shards[0]; ; time.Sleep(time.Millisecond) {
		sh.mu.Lock()
		stopped := sh.stopped
		sh.mu.Unlock()
		if stopped {
			break
		}
	}
	close(gated.gate)
	<-closed
	return boot, stateDir
}

// cleanRun is req's fleet run uninterrupted, in memory.
func cleanRun(t *testing.T, req AddRequest) stream.FleetResult {
	t.Helper()
	jobs, err := synthFactory(req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunFleet(jobs, ShardOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestShardStopKeepsRetryableHomeLive: a home that fails while its shard is
// stopping, with retries left, stays non-terminal and unjournaled — the
// restarted service resumes it from its day-boundary checkpoint instead of
// serving a quarantine.
func TestShardStopKeepsRetryableHomeLive(t *testing.T) {
	const days = 2
	req := AddRequest{Synth: 1, Seed: 71, Days: days}
	want := cleanRun(t, req)
	boot, _ := stopAtGate(t, req, 1)

	svc := boot()
	defer svc.Close(false)
	if done, live := svc.Resumed(); done != 0 || live != 1 {
		t.Fatalf("restart resumed %d done / %d live, want the home live", done, live)
	}
	waitIdleTimeout(t, svc, time.Minute)
	got := svc.Result()
	out := got.Outcomes[0]
	if out.Status != stream.OutcomeCompleted || out.Restores != 1 || out.Days != days {
		t.Fatalf("resumed outcome: %+v", out)
	}
	if !reflect.DeepEqual(got.Homes, want.Homes) {
		t.Fatalf("resumed home diverges:\n%+v\nvs\n%+v", got.Homes, want.Homes)
	}
}

// TestServiceKillRestartResumesFromJournaledCheckpoint: a home stopped
// after day k resumes from the checkpoint journaled with day k — Close
// journals none of its own — and the state dir holds nothing but the
// manifest and its lock file.
func TestServiceKillRestartResumesFromJournaledCheckpoint(t *testing.T) {
	const days, k = 4, 2
	req := AddRequest{Synth: 1, Seed: 73, Days: days}
	want := cleanRun(t, req)
	boot, stateDir := stopAtGate(t, req, k)

	svc := boot()
	defer svc.Close(false)
	if done, live := svc.Resumed(); done != 0 || live != 1 {
		t.Fatalf("restart resumed %d done / %d live, want the home live", done, live)
	}
	waitIdleTimeout(t, svc, time.Minute)
	got := svc.Result()
	out := got.Outcomes[0]
	if out.Status != stream.OutcomeCompleted || out.Restores != 1 || out.CheckpointDay < k || out.Days != days {
		t.Fatalf("resumed outcome: %+v", out)
	}
	if !reflect.DeepEqual(got.Homes, want.Homes) {
		t.Fatalf("resumed home diverges:\n%+v\nvs\n%+v", got.Homes, want.Homes)
	}
	entries, err := os.ReadDir(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Name() != lockName || entries[1].Name() != manifestName {
		t.Fatalf("state dir holds %v, want only %s and %s", entries, lockName, manifestName)
	}
}

// TestServiceTornCheckpointRecordResumesFromPrevious: a kill that tears the
// journal inside its last record — the day-k checkpoint — costs one day of
// progress, not the home: replay drops the torn tail, and the home resumes
// from its day k-1 checkpoint with the same results.
func TestServiceTornCheckpointRecordResumesFromPrevious(t *testing.T) {
	const days, k = 4, 3
	req := AddRequest{Synth: 1, Seed: 74, Days: days}
	want := cleanRun(t, req)
	boot, stateDir := stopAtGate(t, req, k)

	path := ManifestPath(stateDir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	last := 0
	for off := 0; off < len(data); off += 16 + int(binary.BigEndian.Uint32(data[off+8:off+12])) {
		last = off
	}
	tail, err := ReadManifest(bytes.NewReader(data[last:]))
	if err != nil || len(tail) != 1 || tail[0].Op != manifestOpCheckpoint || tail[0].Checkpoint.Days != k {
		t.Fatalf("last journal record is %+v (%v), want the day-%d checkpoint", tail, err, k)
	}
	if err := os.WriteFile(path, data[:last+(len(data)-last)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	man, recs, err := OpenManifest(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	man.Close()
	resumeDay := -1
	for _, rec := range recs {
		if rec.Op == manifestOpCheckpoint {
			resumeDay = rec.Checkpoint.Days
		}
	}
	if resumeDay != k-1 {
		t.Fatalf("torn journal replays the day-%d checkpoint, want day %d", resumeDay, k-1)
	}

	svc := boot()
	defer svc.Close(false)
	waitIdleTimeout(t, svc, time.Minute)
	got := svc.Result()
	out := got.Outcomes[0]
	if out.Status != stream.OutcomeCompleted || out.Restores != 1 || out.Days != days {
		t.Fatalf("resumed outcome: %+v", out)
	}
	if !reflect.DeepEqual(got.Homes, want.Homes) {
		t.Fatalf("resumed home diverges:\n%+v\nvs\n%+v", got.Homes, want.Homes)
	}
}
