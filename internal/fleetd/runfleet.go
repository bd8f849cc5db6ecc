package fleetd

import (
	"fmt"
	"sync"
	"time"

	"github.com/acyd-lab/shatter/internal/stream"
)

// RunFleet drives every job's pipeline to end-of-stream on one shard run to
// idle: admit, WaitIdle, Close, Result. It is the batch form of the service
// — the same open → restore → transport → drive → checkpoint → retry or
// quarantine loop — so a one-shot fleet and a long-running one cannot
// drift apart. Each worker holds at most one live pipeline.
//
// Without Recover, or with FailFast, the first quarantined home stops the
// run, and the error names the lowest-index failed home and wraps its
// failure. With a Broker, Stats.BusFrames is the registry's bus_frames: the
// frames the homes' pipes took off the bus. Per-home results are
// deterministic for any worker count and transport.
func RunFleet(jobs []stream.Job, opts ShardOptions) (stream.FleetResult, error) {
	started := time.Now()
	abortOnQuarantine := !opts.Recover || opts.FailFast
	abort := make(chan struct{})
	var once sync.Once
	if abortOnQuarantine {
		opts.onDone = func(_ stream.HomeResult, out stream.HomeOutcome) error {
			if out.Status == stream.OutcomeQuarantined {
				once.Do(func() { close(abort) })
			}
			return nil
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
	st.BusFrames = svc.met.busFrames.Load()
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
