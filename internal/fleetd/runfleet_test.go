package fleetd

import (
	"errors"
	"net"
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
		opts: ShardOptions{Broker: dead, Dial: mqtt.DialOptions{Timeout: 200 * time.Millisecond}}.withDefaults(),
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

// TestFleetMonitorDrainLostSentinel: when end-of-stream sentinels never
// arrive, drain falls back to bounded quiescence — it returns the frame
// count within the drain deadline instead of hanging.
func TestFleetMonitorDrainLostSentinel(t *testing.T) {
	broker, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()
	m, err := newBusMonitor(broker.Addr(), mqtt.DialOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	m.drainTimeout, m.quiet = 300*time.Millisecond, 10*time.Millisecond

	pub, err := mqtt.Dial(broker.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	const frames = 5
	for i := 0; i < frames; i++ {
		if err := pub.Publish(stream.SensorTopic("ghost"), stream.Slot{Home: "ghost", Day: 0, Index: i}); err != nil {
			t.Fatal(err)
		}
	}
	// No sentinel is ever published: the expected-sentinel wait must time
	// out and the quiescence fallback must return the observed frames.
	start := time.Now()
	n := m.drain(1)
	elapsed := time.Since(start)
	if n != frames {
		t.Fatalf("drain counted %d frames, want %d", n, frames)
	}
	if elapsed < m.drainTimeout {
		t.Fatalf("drain returned in %s, before the %s sentinel deadline", elapsed, m.drainTimeout)
	}
	if elapsed > m.drainTimeout+2*time.Second {
		t.Fatalf("drain took %s — quiescence loop not bounded", elapsed)
	}
}

// TestRunFleetRetryResumesFromMemory: with Recover and no CheckpointDir, a
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
// shard workers, retry timers, transports, the bus monitor — and none
// outlive it, whether the run is clean, chaotic on virtual time, or
// aborted by FailFast.
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
			t.Fatalf("monitor saw %d frames for %d home-days", res.Stats.BusFrames, res.Stats.Days)
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
	svc, err := NewService(Config{Shard: ShardOptions{Workers: 2, Recover: true, AsyncCheckpoints: true},
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

// TestShardStopKeepsRetryableHomeLive: a home that fails while its shard is
// stopping, with retries left, stays non-terminal and unjournaled — the
// restarted service resumes it from its day-boundary checkpoint instead of
// serving a quarantine.
func TestShardStopKeepsRetryableHomeLive(t *testing.T) {
	const days = 2
	req := AddRequest{Synth: 1, Seed: 71, Days: days}
	clean, err := synthFactory(req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunFleet(clean, ShardOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	gated := &gatedSource{at: 1, reached: make(chan struct{}), gate: make(chan struct{})}
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
			// Only the first process lifetime streams through the gate.
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
	stateDir := t.TempDir()
	boot := func() *Service {
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
		svc.Close(true)
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

	svc = boot()
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
