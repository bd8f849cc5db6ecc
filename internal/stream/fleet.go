package stream

import (
	"fmt"
	"time"
)

// Job is one home's entry in a fleet run. Open constructs the home's source
// and runtime lazily on the worker that picks the job up, so a thousand-home
// fleet does not hold a thousand idle pipelines. Open may be called again
// when the supervisor retries the home from a checkpoint.
type Job struct {
	ID   string
	Open func() (Source, *Home, error)
}

// OutcomeStatus classifies how a home's supervised run ended.
type OutcomeStatus string

const (
	// OutcomeCompleted: the home reached end-of-stream on its first attempt.
	OutcomeCompleted OutcomeStatus = "completed"
	// OutcomeRetried: the home failed at least once but a retry completed it.
	OutcomeRetried OutcomeStatus = "retried"
	// OutcomeQuarantined: the home exhausted its retry budget; its result is
	// excluded from the fleet aggregate and Err records the last failure.
	OutcomeQuarantined OutcomeStatus = "quarantined"
)

// HomeOutcome is one home's supervision record.
type HomeOutcome struct {
	ID     string        `json:"id"`
	Status OutcomeStatus `json:"status"`
	// Attempts counts runs of the home's pipeline (1 for a clean first run).
	Attempts int `json:"attempts"`
	// Restores counts attempts that resumed from a checkpoint.
	Restores int `json:"restores"`
	// CheckpointDay is the highest day boundary persisted for the home.
	CheckpointDay int `json:"checkpoint_day,omitempty"`
	// Days is the home's day progress when supervision ended: the streamed
	// day count for a completed home, and the furthest full day any attempt
	// reached for a quarantined one — so a quarantine record shows how far
	// the home got without re-running it.
	Days int `json:"days,omitempty"`
	// Duration is the wall-clock time spent driving the home's pipeline
	// across all attempts (retry backoff waits excluded).
	Duration time.Duration `json:"duration_ns,omitempty"`
	// Err is the final error of a quarantined home (or the last retried
	// failure's message for a home that eventually completed).
	Err string `json:"err,omitempty"`
}

// FleetStats aggregates a fleet run.
type FleetStats struct {
	Homes        int           `json:"homes"`
	Days         int64         `json:"days"`
	Slots        int64         `json:"slots"`
	SensorEvents int64         `json:"sensor_events"`
	ActionEvents int64         `json:"action_events"`
	Verdicts     int64         `json:"verdicts"`
	Events       int64         `json:"events"`
	TotalKWh     float64       `json:"total_kwh"`
	TotalCostUSD float64       `json:"total_cost_usd"`
	Injected     int64         `json:"injected"`
	Flagged      int64         `json:"flagged"`
	Elapsed      time.Duration `json:"elapsed_ns"`
	HomesPerSec  float64       `json:"homes_per_sec"`
	EventsPerSec float64       `json:"events_per_sec"`
	// BusFrames counts the data frames the fleet-wide home/+/sensor monitor
	// saw (zero without a broker). Each home-day is one binary frame, so a
	// clean fleet tallies its Days here and a chaos fleet an at-least-once
	// count of Days (retried attempts republish, and a corrupted frame's
	// stand-in counts too).
	BusFrames int64 `json:"bus_frames"`
	// Retries counts extra attempts across the fleet; Restores counts the
	// attempts that resumed from a checkpoint; Quarantined counts homes
	// that exhausted their retry budget.
	Retries     int64 `json:"retries"`
	Restores    int64 `json:"restores"`
	Quarantined int64 `json:"quarantined"`
}

// FleetResult is a fleet run's outcome: per-home results and supervision
// records in job order plus the aggregate. Quarantined homes contribute an
// ID-only HomeResult and are excluded from the aggregate. Everything except
// wall-clock fields (Stats' Elapsed/rates, each Outcome's Duration, and,
// under chaos, BusFrames) is deterministic for a fixed job list,
// independent of Workers and transport.
type FleetResult struct {
	Homes    []HomeResult
	Outcomes []HomeOutcome
	Stats    FleetStats
}

// AggregateFleet assembles a FleetResult from index-aligned per-home
// results and supervision records — the fleet supervisor's accounting.
// Quarantined homes are excluded from the stats. Wall-clock fields
// (Elapsed, rates, BusFrames) are left zero for the caller to fill.
func AggregateFleet(results []HomeResult, outcomes []HomeOutcome) FleetResult {
	out := FleetResult{Homes: results, Outcomes: outcomes}
	st := &out.Stats
	st.Homes = len(results)
	for i := range results {
		if outcomes[i].Status == OutcomeQuarantined {
			continue
		}
		r := &results[i]
		st.Days += int64(r.Days)
		st.Slots += r.Slots
		st.SensorEvents += r.SensorEvents
		st.ActionEvents += r.ActionEvents
		st.Verdicts += r.Verdicts
		st.Injected += r.Injected
		st.Flagged += r.Flagged
		st.TotalKWh += r.Sim.TotalKWh
		st.TotalCostUSD += r.Sim.TotalCostUSD
	}
	for i := range outcomes {
		st.Retries += int64(outcomes[i].Attempts - 1)
		st.Restores += int64(outcomes[i].Restores)
		if outcomes[i].Status == OutcomeQuarantined {
			st.Quarantined++
		}
	}
	st.Events = st.SensorEvents + st.ActionEvents + st.Verdicts
	return out
}

// RestoreFrom applies a checkpoint to a freshly opened (source, home) pair:
// the home's state is rebuilt and the source fast-forwarded to the
// checkpoint's day cursor — the fleet supervisor's retry and rehydration
// path.
func RestoreFrom(src Source, home *Home, ck *Checkpoint) error {
	seeker, ok := src.(DaySeeker)
	if !ok {
		return fmt.Errorf("stream: source cannot seek to day %d", ck.Days)
	}
	if err := home.Restore(ck); err != nil {
		return err
	}
	return seeker.SeekDay(ck.Days)
}

// SensorTopic names a home's sensor stream on the fleet bus; the fleet-wide
// filter home/+/sensor matches every home's topic.
func SensorTopic(homeID string) string { return "home/" + homeID + "/sensor" }
