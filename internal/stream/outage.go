package stream

import (
	"sync"
	"time"

	"github.com/acyd-lab/shatter/internal/mqtt"
)

// OutageSchedule describes a broker-outage chaos campaign: every Every (with
// deterministic jitter) the broker is suspended for Down, Count times total
// (0 = until stopped). Session-resume clients must ride every outage out —
// the schedule always resumes the broker before finishing, so the bus is
// never left dark.
type OutageSchedule struct {
	// Every is the nominal gap between outage onsets. The actual gap is
	// jittered deterministically from Seed into [Every/2, Every*3/2) so
	// outages don't phase-lock with day boundaries.
	Every time.Duration
	// Down is how long each outage lasts before the broker restarts.
	Down time.Duration
	// Count bounds the number of outages; 0 repeats until Stop.
	Count int
	// Seed drives the jitter sequence; the same seed replays the same
	// outage timeline.
	Seed uint64
}

// BrokerOutages is a running outage campaign against one broker.
type BrokerOutages struct {
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// StartBrokerOutages launches a background schedule of Suspend/Resume cycles
// against b. Waits run on clock (nil = wall clock); under a non-real clock
// waits return immediately, so chaos tests can cycle the broker as fast as
// the fleet can reconnect. Call Stop to end the campaign — it always leaves
// the broker resumed.
func StartBrokerOutages(b *mqtt.Broker, sched OutageSchedule, clock Clock) *BrokerOutages {
	clock = clockOrReal(clock)
	o := &BrokerOutages{
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go o.run(b, sched, clock)
	return o
}

// run executes the outage timeline. splitmix64 over Seed gives the jitter
// stream — deterministic, so a failing chaos run replays exactly.
func (o *BrokerOutages) run(b *mqtt.Broker, sched OutageSchedule, clock Clock) {
	defer close(o.done)
	// However the campaign exits, leave the bus up.
	defer b.Resume() //nolint:errcheck // best-effort: Stop must not leave the broker dark

	state := sched.Seed
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for n := 0; sched.Count == 0 || n < sched.Count; n++ {
		gap := sched.Every
		if gap > 0 {
			gap = gap/2 + time.Duration(next()%uint64(gap))
		}
		if !o.wait(gap, clock) {
			return
		}
		b.Suspend()
		stopped := !o.wait(sched.Down, clock)
		if err := b.Resume(); err != nil {
			return // broker closed underneath the campaign
		}
		if stopped {
			return
		}
	}
}

// wait blocks for d on the campaign's clock, returning false if Stop fired.
// Under the real clock the wait itself is interruptible; virtual clocks
// return immediately, so the stop check after the sleep suffices.
func (o *BrokerOutages) wait(d time.Duration, clock Clock) bool {
	if clock == RealClock {
		select {
		case <-o.stop:
			return false
		case <-time.After(d):
			return true
		}
	}
	clock.Sleep(d)
	select {
	case <-o.stop:
		return false
	default:
		return true
	}
}

// Stop ends the campaign and blocks until the broker is resumed. Safe to
// call more than once.
func (o *BrokerOutages) Stop() {
	o.stopOnce.Do(func() { close(o.stop) })
	<-o.done
}
