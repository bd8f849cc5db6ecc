package stream

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"time"

	"github.com/acyd-lab/shatter/internal/rng"
)

// FaultClass enumerates the transport fault classes the chaos layer
// injects. Drop, Duplicate, Delay, and Disconnect are recoverable — the
// fleet either absorbs them in the transport (duplicates, delays) or
// retries the home from its last checkpoint (drops, disconnects) and still
// produces byte-identical results. Corrupt and Truncate are recoverable
// only while the retry budget lasts; past it the home is quarantined.
type FaultClass int

const (
	FaultNone FaultClass = iota
	// FaultDrop silently loses a frame; the receiver sees a gap in the day
	// sequence — or a short stream, when the tail was lost — and the home
	// retries from its checkpoint.
	FaultDrop
	// FaultDuplicate delivers a frame twice; the pipe's dedup absorbs it.
	FaultDuplicate
	// FaultDelay stalls a frame briefly; ordering is preserved so only
	// latency changes.
	FaultDelay
	// FaultCorrupt fails the frame's integrity check: the read of that day
	// errors and the stream ends there. On the bus the pump publishes its
	// end-of-stream sentinel and the receiver returns the same error.
	FaultCorrupt
	// FaultTruncate cuts a column pair off the frame; the frame decodes
	// but fails the home's structural check.
	FaultTruncate
	// FaultDisconnect kills the home's link at that day: the read errors,
	// and so does every read after it. On the bus the pump publishes its
	// end-of-stream sentinel and the receiver returns the same error.
	FaultDisconnect
)

// String names the class for error messages and logs.
func (c FaultClass) String() string {
	switch c {
	case FaultNone:
		return "none"
	case FaultDrop:
		return "drop"
	case FaultDuplicate:
		return "duplicate"
	case FaultDelay:
		return "delay"
	case FaultCorrupt:
		return "corrupt"
	case FaultTruncate:
		return "truncate"
	case FaultDisconnect:
		return "disconnect"
	}
	return fmt.Sprintf("FaultClass(%d)", int(c))
}

// FaultConfig is the seeded chaos schedule for a fleet: per-frame fault
// probabilities applied to every home's transport, where a frame is one
// home-day block. The schedule is deterministic per (home, attempt, day)
// and independent of worker count and wall-clock timing, so a chaos run is
// exactly reproducible from its seed.
type FaultConfig struct {
	// Seed roots every home's fault schedule.
	Seed uint64
	// Per-frame probabilities of each fault class (evaluated in this
	// order from a single uniform draw; each in [0, 1] and their sum
	// <= 1).
	Drop       float64
	Duplicate  float64
	Delay      float64
	Corrupt    float64
	Truncate   float64
	Disconnect float64
	// MaxDelay bounds a delayed frame's stall; 0 defaults to 2ms.
	MaxDelay time.Duration
	// CleanAttempt is the retry attempt index from which a home's
	// transport runs fault-free, guaranteeing a bounded chaos run
	// eventually completes: attempts 0..CleanAttempt-1 are faulty. 0
	// defaults to 2 (two faulty attempts, then clean); negative means
	// every attempt is faulty (quarantine testing).
	CleanAttempt int
}

// ErrInjectedFault tags every failure the chaos layer manufactures, so
// tests and quarantine records can tell injected faults from real bugs.
var ErrInjectedFault = errors.New("stream: injected fault")

// Plan derives the deterministic fault schedule for one home's transport
// attempt, or nil when the attempt runs clean (nil receivers — chaos
// disabled — always run clean).
func (c *FaultConfig) Plan(homeID string, attempt int) *FaultPlan {
	if c == nil {
		return nil
	}
	clean := c.CleanAttempt
	if clean == 0 {
		clean = 2
	}
	if clean > 0 && attempt >= clean {
		return nil
	}
	h := fnv.New64a()
	h.Write([]byte(homeID))
	return &FaultPlan{cfg: c, seed: c.Seed ^ h.Sum64() ^ (uint64(attempt+1) * 0x9e3779b97f4a7c15)}
}

// FaultPlan is one transport attempt's seeded fault schedule. RollDay keys
// each day-block's fault by the absolute day, so the schedule depends only
// on (config, home, attempt, day) — not on call order, nor on where in the
// stream an attempt resumed.
type FaultPlan struct {
	cfg  *FaultConfig
	seed uint64
}

// classify maps one uniform draw to a fault class by the config's
// cumulative probabilities.
func (p *FaultPlan) classify(u float64) FaultClass {
	cum := 0.0
	for _, t := range [...]struct {
		prob  float64
		class FaultClass
	}{
		{p.cfg.Drop, FaultDrop},
		{p.cfg.Duplicate, FaultDuplicate},
		{p.cfg.Delay, FaultDelay},
		{p.cfg.Corrupt, FaultCorrupt},
		{p.cfg.Truncate, FaultTruncate},
		{p.cfg.Disconnect, FaultDisconnect},
	} {
		cum += t.prob
		if u < cum {
			return t.class
		}
	}
	return FaultNone
}

// RollDay draws the fault for the day-block frame covering the given
// absolute day, plus the stall duration when the class is FaultDelay. The
// draw is keyed by (home, attempt, day) — not by call order — so a retry
// that seeks past its checkpoint sees exactly the faults an uninterrupted
// attempt would have seen for the remaining days.
func (p *FaultPlan) RollDay(day int) (FaultClass, time.Duration) {
	r := rng.New(p.seed ^ (uint64(day+1) * 0xbf58476d1ce4e5b9))
	class := p.classify(r.Float64())
	var stall time.Duration
	if class == FaultDelay {
		max := p.cfg.MaxDelay
		if max <= 0 {
			max = 2 * time.Millisecond
		}
		stall = time.Duration(r.Float64() * float64(max))
	}
	return class, stall
}

// faultSource wraps a Source with the chaos schedule: one RollDay-keyed
// fault per home-day frame. It is the only fault applier. The direct path
// reads it straight, and an MQTT pipe pumps what it reads onto the bus, so
// both framings see the same faults. Dropped frames surface as sequence
// gaps (or, when the tail is lost, as a short-stream error at EOF),
// corruption as read errors, disconnects as a dead stream. Duplicates
// re-deliver the previous frame: the direct path has no dedup layer, so the
// home's ordering check trips and the supervisor retries, while the pipe's
// day tracking absorbs the second copy.
type faultSource struct {
	src   Source
	plan  *FaultPlan
	clock Clock

	dup  bool // re-deliver prev on the next call
	prev DayBlock
	dead bool
	gap  bool // a frame was dropped; EOF before it surfaces is a tail loss
}

// NewFaultSource wraps a source with a chaos schedule — the fleet shard's
// fault wiring for both framings (a brokered shard hands the wrapped source
// to its pipe). A nil plan returns src unchanged; a nil clock waits on real
// time.
func NewFaultSource(src Source, plan *FaultPlan, clock Clock) Source {
	if plan == nil {
		return src
	}
	return &faultSource{src: src, plan: plan, clock: clockOrReal(clock)}
}

// NextBlock implements Source under the day-keyed fault schedule.
func (f *faultSource) NextBlock(dst *DayBlock) error {
	if f.dead {
		return fmt.Errorf("%w: connection force-closed", ErrInjectedFault)
	}
	if f.dup {
		f.dup = false
		copyBlock(dst, &f.prev)
		return nil
	}
	for {
		if err := f.src.NextBlock(dst); err != nil {
			if err == io.EOF && f.gap {
				// The dropped frame was never followed by a delivered one, so
				// no sequence check can catch it — the stream just ends
				// short. Error instead of silently completing with lost data.
				return fmt.Errorf("%w: stream ended after a dropped day frame", ErrInjectedFault)
			}
			return err
		}
		class, stall := f.plan.RollDay(dst.Day)
		switch class {
		case FaultDrop:
			f.gap = true
			continue // lose the whole day frame
		case FaultDuplicate:
			copyBlock(&f.prev, dst)
			f.dup = true
		case FaultDelay:
			f.clock.Sleep(stall)
		case FaultCorrupt:
			return fmt.Errorf("%w: corrupted day frame %d", ErrInjectedFault, dst.Day)
		case FaultTruncate:
			truncateBlock(dst)
		case FaultDisconnect:
			f.dead = true
			return fmt.Errorf("%w: connection force-closed at day frame %d", ErrInjectedFault, dst.Day)
		}
		return nil
	}
}

// SeekDay forwards to the wrapped source so a faulty attempt can still
// resume from a checkpoint.
func (f *faultSource) SeekDay(day int) error {
	if s, ok := f.src.(DaySeeker); ok {
		return s.SeekDay(day)
	}
	return fmt.Errorf("stream: wrapped source cannot seek")
}

// copyBlock deep-copies a day-block into dst, reusing dst's backing storage.
func copyBlock(dst, src *DayBlock) {
	dst.ensure(len(src.TrueZone), len(src.TrueAppliance))
	dst.Home, dst.Day = src.Home, src.Day
	copy(dst.TempF, src.TempF)
	copy(dst.CO2PPM, src.CO2PPM)
	for o := range src.TrueZone {
		copy(dst.TrueZone[o], src.TrueZone[o])
		copy(dst.TrueAct[o], src.TrueAct[o])
		copy(dst.RepZone[o], src.RepZone[o])
		copy(dst.RepAct[o], src.RepAct[o])
	}
	for a := range src.TrueAppliance {
		copy(dst.TrueAppliance[a], src.TrueAppliance[a])
		copy(dst.RepAppliance[a], src.RepAppliance[a])
	}
}

// truncateBlock slices one column pair off a day-block. The remaining
// columns stay internally consistent (so the block still encodes on the
// wire), but the home's structural check rejects the short shape — the
// block-granular analogue of a truncated reading vector.
func truncateBlock(b *DayBlock) {
	if n := len(b.TrueAppliance); n > 0 {
		b.TrueAppliance = b.TrueAppliance[:n-1]
		b.RepAppliance = b.RepAppliance[:n-1]
		return
	}
	if n := len(b.TrueZone); n > 0 {
		b.TrueZone = b.TrueZone[:n-1]
		b.TrueAct = b.TrueAct[:n-1]
		b.RepZone = b.RepZone[:n-1]
		b.RepAct = b.RepAct[:n-1]
	}
}
