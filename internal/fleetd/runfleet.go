package fleetd

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/acyd-lab/shatter/internal/mqtt"
	"github.com/acyd-lab/shatter/internal/stream"
)

// RunFleet drives every job's pipeline to end-of-stream on one shard run to
// idle: admit, WaitIdle, Close, Result. It is the batch form of the service
// — the same open → restore → transport → drive → checkpoint → retry or
// quarantine loop — so a one-shot fleet and a long-running one cannot
// drift apart. Unless MaxResident is set, the shard holds one live pipeline
// per worker, the residency of a bounded worker pool.
//
// Without Recover, or with FailFast, the first quarantined home stops the
// run, and the error names the lowest-index failed home and wraps its
// failure. With a Broker, a fleet-wide home/+/sensor monitor tallies the
// bus traffic into Stats.BusFrames. Per-home results are deterministic for
// any worker count and transport.
func RunFleet(jobs []stream.Job, opts ShardOptions) (stream.FleetResult, error) {
	started := time.Now()
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.MaxResident <= 0 {
		opts.MaxResident = opts.Workers
	}
	var mon *busMonitor
	if opts.Broker != "" {
		m, err := newBusMonitor(opts.Broker, opts.Dial, opts.ProbeTimeout)
		if err != nil {
			return stream.FleetResult{}, fmt.Errorf("fleetd: fleet monitor: %w", err)
		}
		mon = m
		defer mon.close()
	}
	abortOnQuarantine := !opts.Recover || opts.FailFast
	abort := make(chan struct{})
	var once sync.Once
	if abortOnQuarantine {
		opts.onDone = func(_ stream.HomeResult, out stream.HomeOutcome) {
			if out.Status == stream.OutcomeQuarantined {
				once.Do(func() { close(abort) })
			}
		}
	}
	svc, err := NewService(Config{Shard: opts})
	if err != nil {
		return stream.FleetResult{}, err
	}
	if err := svc.Add(jobs); err != nil {
		svc.Close(false)
		return stream.FleetResult{}, err
	}
	idle := make(chan struct{})
	go func() {
		svc.WaitIdle()
		close(idle)
	}()
	select {
	case <-idle:
	case <-abort:
	}
	svc.Close(false)
	<-idle
	out := svc.Result()
	if abortOnQuarantine {
		for _, o := range out.Outcomes {
			if o.Status == stream.OutcomeQuarantined {
				return stream.FleetResult{}, fmt.Errorf("fleetd: home %s: %w", o.ID, svc.shards[0].homeErr(o.ID))
			}
		}
	}
	st := &out.Stats
	if mon != nil {
		st.BusFrames = mon.drain(st.Homes - int(st.Quarantined))
	}
	st.Elapsed = time.Since(started)
	if secs := st.Elapsed.Seconds(); secs > 0 {
		st.HomesPerSec = float64(st.Homes) / secs
		st.EventsPerSec = float64(st.Events) / secs
	}
	return out, nil
}

// homeErr reports a home's last failure.
func (sh *Shard) homeErr(id string) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.homes[id].err
}

// busMonitor is RunFleet's fleet-wide observer: one client subscribed to
// home/+/sensor counting every data frame on the bus. Transport control
// frames are excluded from the count; the end-of-stream sentinels among
// them are tallied separately to tell drain when the bus has settled.
type busMonitor struct {
	client *mqtt.Client
	frames atomic.Int64
	eofs   atomic.Int64
	seen   chan struct{} // closed on the first frame of any kind
	bump   chan struct{} // sticky wakeup: set after every counted message
	done   chan struct{}

	// drainTimeout bounds each of drain's two waits; quiet is the bus
	// stillness window the lost-sentinel fallback requires.
	drainTimeout time.Duration
	quiet        time.Duration
}

func newBusMonitor(broker string, dial mqtt.DialOptions, probeTimeout time.Duration) (*busMonitor, error) {
	if probeTimeout <= 0 {
		probeTimeout = 5 * time.Second
	}
	c, err := mqtt.DialWithOptions(broker, dial)
	if err != nil {
		return nil, err
	}
	ch, err := c.Subscribe("home/+/sensor")
	if err != nil {
		c.Close()
		return nil, err
	}
	m := &busMonitor{
		client:       c,
		seen:         make(chan struct{}),
		bump:         make(chan struct{}, 1),
		done:         make(chan struct{}),
		drainTimeout: 10 * time.Second,
		quiet:        20 * time.Millisecond,
	}
	go func() {
		defer close(m.done)
		first := true
		for msg := range ch {
			if first {
				close(m.seen)
				first = false
			}
			switch data, eof := stream.ClassifyBusFrame(msg.Payload); {
			case data:
				m.frames.Add(1)
			case eof:
				m.eofs.Add(1)
			}
			// Wake the drain after the counters moved; the 1-slot buffer
			// makes the signal sticky, so a wakeup is never lost.
			select {
			case m.bump <- struct{}{}:
			default:
			}
		}
	}()
	// Confirm the subscription is registered before any home publishes: a
	// loopback probe on the monitor's own connection is processed by the
	// broker strictly after the subscription frame.
	if err := c.Publish(stream.SensorTopic("monitor"), stream.ProbeFrame()); err != nil {
		m.close()
		return nil, err
	}
	select {
	case <-m.seen:
	case <-time.After(probeTimeout):
		m.close()
		return nil, fmt.Errorf("mqtt monitor probe lost")
	}
	return m, nil
}

// drain waits until every completed home's end-of-stream sentinel has
// reached the monitor and returns the data-frame count. Each pipe publishes
// its data frames and then its sentinel on one connection, and the broker
// processes a connection's frames in order, so seeing a home's sentinel
// proves all its data frames were counted. The wait is event-driven — the
// subscriber wakes it through the sticky bump channel. Sentinels can be
// lost (a chaos-killed publisher, a quarantined home's aborted attempts),
// so a bounded stillness fallback closes the gap: once the sentinel wait
// times out, the count is taken after the bus stays still for one quiet
// window, capped by a second drainTimeout.
func (m *busMonitor) drain(homes int) int64 {
	deadline := time.NewTimer(m.drainTimeout)
	defer deadline.Stop()
	for m.eofs.Load() < int64(homes) {
		select {
		case <-m.bump:
		case <-deadline.C:
			return m.quiesce()
		}
	}
	return m.frames.Load()
}

// quiesce waits for the bus to stay still for one quiet window — the
// lost-sentinel fallback — bounded by an extra drainTimeout.
func (m *busMonitor) quiesce() int64 {
	bound := time.NewTimer(m.drainTimeout)
	defer bound.Stop()
	still := time.NewTimer(m.quiet)
	defer still.Stop()
	for {
		select {
		case <-m.bump:
			if !still.Stop() {
				select {
				case <-still.C:
				default:
				}
			}
			still.Reset(m.quiet)
		case <-still.C:
			return m.frames.Load()
		case <-bound.C:
			return m.frames.Load()
		}
	}
}

func (m *busMonitor) close() {
	m.client.Close()
	<-m.done
}
