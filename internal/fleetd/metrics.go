package fleetd

import (
	"runtime"
	"sync/atomic"
	"time"

	"github.com/acyd-lab/shatter/internal/aras"
)

// Metrics is the service's live counter registry. Every shard worker bumps
// the shared atomics as it drives homes, so a snapshot is cheap enough to
// publish every few seconds without pausing the fleet. Counters are
// monotonic over the service's lifetime; gauges (pending, running and
// paused homes) are read from the shards at snapshot time.
type Metrics struct {
	start time.Time

	homesAdded     atomic.Int64
	homesCompleted atomic.Int64
	homesFailed    atomic.Int64
	homesRemoved   atomic.Int64
	days           atomic.Int64
	busFrames      atomic.Int64
	sensorEvents   atomic.Int64
	actionEvents   atomic.Int64
	verdicts       atomic.Int64
	anomalies      atomic.Int64
	retries        atomic.Int64
	restores       atomic.Int64
	checkpoints    atomic.Int64
	watchdogTrips  atomic.Int64
	journalErrors  atomic.Int64
}

// NewMetrics returns a registry with its rate epoch set to now.
func NewMetrics() *Metrics {
	return &Metrics{start: time.Now()}
}

// ShardStatus is one shard's gauge set at snapshot time.
type ShardStatus struct {
	Shard int `json:"shard"`
	// Pending homes hold no pipeline state and wait for a worker: not yet
	// opened, waiting out a retry backoff, or released at a day boundary by
	// a drain. Running homes are on a worker, the only place a home holds
	// pipeline state; Paused homes hold none and wait for Resume.
	Pending int `json:"pending"`
	Running int `json:"running"`
	Paused  int `json:"paused"`
	// Done and Failed count homes that finished on this shard.
	Done   int `json:"done"`
	Failed int `json:"failed"`
	// Drained reports whether the shard is currently drained (no live
	// pipelines, dispatch off until Rehydrate).
	Drained bool `json:"drained"`
	// ApproxHeapBytes is the service heap prorated by this shard's share of
	// running homes — an approximation (Go's heap is global), but it tracks
	// which shard holds the live state.
	ApproxHeapBytes uint64 `json:"approx_heap_bytes"`
}

// Snapshot is the metrics document published on the metrics topic and
// printed by cmd/fleetd. All rates are computed over the service lifetime.
type Snapshot struct {
	UptimeNS       int64 `json:"uptime_ns"`
	HomesAdded     int64 `json:"homes_added"`
	HomesActive    int64 `json:"homes_active"` // added - completed - failed - removed
	HomesCompleted int64 `json:"homes_completed"`
	HomesFailed    int64 `json:"homes_failed"`
	HomesRemoved   int64 `json:"homes_removed"`
	Days           int64 `json:"days"`
	Slots          int64 `json:"slots"`
	SensorEvents   int64 `json:"sensor_events"`
	ActionEvents   int64 `json:"action_events"`
	Verdicts       int64 `json:"verdicts"`
	Anomalies      int64 `json:"anomalies"`
	Retries        int64 `json:"retries"`
	Restores       int64 `json:"restores"`
	Checkpoints    int64 `json:"checkpoints"`
	// BusFrames counts the binary day frames the homes' MQTT pipes took off
	// the bus, duplicates and foreign-epoch stragglers included; 0 on the
	// direct path. A clean fleet moves one frame per home-day.
	BusFrames int64 `json:"bus_frames"`
	// WatchdogTrips counts attempts that failed because a brokered home's
	// pipe waited longer than ProgressDeadline for its next day frame
	// (stream.ErrReceiveTimeout).
	WatchdogTrips int64 `json:"watchdog_trips"`
	// JournalErrors counts checkpoint and done records the manifest failed
	// to append; each one failed a checkpoint or marked a home's outcome.
	JournalErrors int64 `json:"journal_errors"`

	HomesPerSec  float64 `json:"homes_per_sec"` // completed homes / uptime
	DaysPerSec   float64 `json:"days_per_sec"`
	EventsPerSec float64 `json:"events_per_sec"`

	HeapAllocBytes uint64        `json:"heap_alloc_bytes"`
	Goroutines     int           `json:"goroutines"`
	Shards         []ShardStatus `json:"shards"`
}

// Snapshot assembles the current counter values plus the given per-shard
// gauges into a publishable document.
func (m *Metrics) Snapshot(shards []ShardStatus) Snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	up := time.Since(m.start)
	s := Snapshot{
		UptimeNS:       up.Nanoseconds(),
		HomesAdded:     m.homesAdded.Load(),
		HomesCompleted: m.homesCompleted.Load(),
		HomesFailed:    m.homesFailed.Load(),
		HomesRemoved:   m.homesRemoved.Load(),
		Days:           m.days.Load(),
		SensorEvents:   m.sensorEvents.Load(),
		ActionEvents:   m.actionEvents.Load(),
		Verdicts:       m.verdicts.Load(),
		Anomalies:      m.anomalies.Load(),
		Retries:        m.retries.Load(),
		Restores:       m.restores.Load(),
		Checkpoints:    m.checkpoints.Load(),
		BusFrames:      m.busFrames.Load(),
		WatchdogTrips:  m.watchdogTrips.Load(),
		JournalErrors:  m.journalErrors.Load(),
		HeapAllocBytes: ms.HeapAlloc,
		Goroutines:     runtime.NumGoroutine(),
		Shards:         shards,
	}
	s.HomesActive = s.HomesAdded - s.HomesCompleted - s.HomesFailed - s.HomesRemoved
	s.Slots = s.Days * aras.SlotsPerDay // shards only count whole days
	if secs := up.Seconds(); secs > 0 {
		s.HomesPerSec = float64(s.HomesCompleted) / secs
		s.DaysPerSec = float64(s.Days) / secs
		s.EventsPerSec = float64(s.SensorEvents+s.ActionEvents+s.Verdicts) / secs
	}
	// Prorate the (global) heap across shards by running share so the
	// per-shard figure reflects who holds the live pipelines.
	running := 0
	for i := range shards {
		running += shards[i].Running
	}
	for i := range s.Shards {
		if running > 0 {
			s.Shards[i].ApproxHeapBytes = uint64(float64(ms.HeapAlloc) * float64(s.Shards[i].Running) / float64(running))
		}
	}
	return s
}
