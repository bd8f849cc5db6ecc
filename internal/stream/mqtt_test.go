package stream

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"github.com/acyd-lab/shatter/internal/mqtt"
)

// TestPipeReceiveTimeout: a silent publisher surfaces as ErrReceiveTimeout
// instead of a hang — the supervised fleet's escape from a lost sentinel.
func TestPipeReceiveTimeout(t *testing.T) {
	broker, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()
	// A source that delivers one day frame and then blocks forever.
	stall := &stallingSource{src: traceSrc(t, 1), after: 1, release: make(chan struct{})}
	pipe, err := OpenPipeOptions(broker.Addr(), SensorTopic("slow"), stall, PipeOptions{
		ReceiveTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(stall.release)
		pipe.Close()
	}()
	var b DayBlock
	if err := pipe.NextBlock(&b); err != nil {
		t.Fatal(err)
	}
	if err := pipe.NextBlock(&b); !errors.Is(err, ErrReceiveTimeout) {
		t.Fatalf("err = %v, want receive timeout", err)
	}
}

// TestPipeDeadlineCoversStaleFrames: the receive deadline bounds a whole
// NextBlock call, so a bus that keeps carrying frames the pipe discards —
// here a dead attempt's end-of-stream sentinel, republished every 20ms —
// cannot hold a stalled stream past it.
func TestPipeDeadlineCoversStaleFrames(t *testing.T) {
	broker, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()
	topic := SensorTopic("stale")
	stall := &stallingSource{src: traceSrc(t, 1), release: make(chan struct{})}
	pipe, err := OpenPipeOptions(broker.Addr(), topic, stall, PipeOptions{
		ReceiveTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	noise, err := mqtt.Dial(broker.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer noise.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if err := noise.Publish(topic, controlFrame{Day: dayEOF, Epoch: 1}); err != nil {
					t.Errorf("stale sentinel: %v", err)
					return
				}
			}
		}
	}()
	done := make(chan error, 1)
	go func() {
		var b DayBlock
		done <- pipe.NextBlock(&b)
	}()
	var got error
	returned := false
	select {
	case got = <-done:
		returned = true
	case <-time.After(3 * time.Second):
	}
	close(stop)
	wg.Wait()
	// Releasing the source lets its own sentinel end a call that is still
	// blocked, so the pipe is idle before Close either way.
	close(stall.release)
	if !returned {
		<-done
	}
	pipe.Close()
	if !returned {
		t.Fatal("NextBlock still blocked after 3s of stale sentinels with a 200ms deadline")
	}
	if !errors.Is(got, ErrReceiveTimeout) {
		t.Fatalf("err = %v, want receive timeout", got)
	}
}

// TestPipeFailsFastOnBrokerRestart: a pipe's connection never resumes, so a
// broker restart fails the next NextBlock at once instead of leaving it to
// wait out its receive deadline for frames the restarted broker dropped.
func TestPipeFailsFastOnBrokerRestart(t *testing.T) {
	broker, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()
	stall := &stallingSource{src: traceSrc(t, 1), after: 1, release: make(chan struct{})}
	pipe, err := OpenPipeOptions(broker.Addr(), SensorTopic("restart"), stall, PipeOptions{
		ReceiveTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(stall.release)
		pipe.Close()
	}()
	var b DayBlock
	if err := pipe.NextBlock(&b); err != nil {
		t.Fatal(err)
	}
	broker.Suspend()
	if err := broker.Resume(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = pipe.NextBlock(&b)
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("NextBlock took %v after a broker restart (err %v)", took, err)
	}
	if err == nil || errors.Is(err, ErrReceiveTimeout) {
		t.Fatalf("err = %v, want a lost connection", err)
	}
}

// stallingSource delivers `after` day frames then blocks until released.
type stallingSource struct {
	src     Source
	after   int
	n       int
	release chan struct{}
}

func (s *stallingSource) NextBlock(dst *DayBlock) error {
	if s.n >= s.after {
		<-s.release
		return io.EOF
	}
	s.n++
	return s.src.NextBlock(dst)
}

// lockstepSource emits its block once per request on next, as days 0, 1,
// …, days-1, then io.EOF. A pump can publish a day only once the consumer
// has asked for it, so a window of requests covers every stage of its days
// on the bus: the source copy, encode, publish, broker fan-out, delivery
// and decode.
type lockstepSource struct {
	blk       *DayBlock
	next      chan struct{}
	day, days int
}

func newLockstepSource(blk *DayBlock, days int) *lockstepSource {
	return &lockstepSource{blk: blk, next: make(chan struct{}, 1), days: days}
}

func (s *lockstepSource) NextBlock(dst *DayBlock) error {
	if s.day == s.days {
		return io.EOF
	}
	<-s.next
	copyBlock(dst, s.blk)
	dst.Day = s.day
	s.day++
	return nil
}

// request asks for the source's next day and receives it from the pipe.
func (s *lockstepSource) request(pipe *Pipe, dst *DayBlock) error {
	s.next <- struct{}{}
	return pipe.NextBlock(dst)
}

// TestPipeAllocBounds locks the bus's pooled buffers on pipes over an
// in-process broker that stream house A. A warm pipe moves a home-day with
// a few small allocations (topic and home strings) instead of a
// frame-sized payload copy, and a new home's pipe draws its read buffers,
// payload copies, pump block and encode buffer from the pools instead of
// growing its own. The consumer's block is reused across homes, as a shard
// worker's is. The collector is off while it measures, because a
// collection empties the pools.
func TestPipeAllocBounds(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of its Puts under -race")
	}
	broker, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()
	blk := codecBlocks(t, "A", 1)[0]
	var dst DayBlock
	open := func(id string, days int) (*Pipe, *lockstepSource) {
		t.Helper()
		src := newLockstepSource(blk, days)
		pipe, err := OpenPipeOptions(broker.Addr(), SensorTopic(id), src, PipeOptions{ReceiveTimeout: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		return pipe, src
	}
	stream := func(pipe *Pipe, src *lockstepSource, days int) {
		t.Helper()
		for d := 0; d < days; d++ {
			if err := src.request(pipe, &dst); err != nil {
				t.Fatal(err)
			}
		}
	}
	finish := func(pipe *Pipe) {
		t.Helper()
		if err := pipe.NextBlock(&dst); err != io.EOF {
			t.Fatalf("end of stream: %v", err)
		}
		pipe.Close()
	}
	oneDayHome := func(id string) {
		pipe, src := open(id, 1)
		stream(pipe, src, 1)
		finish(pipe)
	}
	allocated := func(f func()) uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		f()
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - before
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 4; i++ {
		oneDayHome(fmt.Sprintf("warm%d", i))
	}

	const days, warm = 32, 8
	pipe, src := open("A", warm+days)
	stream(pipe, src, warm)
	perDay := allocated(func() { stream(pipe, src, days) }) / days
	finish(pipe)

	const homes = 32
	perHome := allocated(func() {
		for i := 0; i < homes; i++ {
			oneDayHome(fmt.Sprintf("home%d", i))
		}
	}) / homes
	t.Logf("%d B per home-day on a warm pipe, %d B per one-day home", perDay, perHome)
	if perDay > 8<<10 {
		t.Errorf("a warm pipe allocated %d B per home-day, want <= 8 KiB", perDay)
	}
	if perHome > 128<<10 {
		t.Errorf("a one-day home allocated %d B, want <= 128 KiB", perHome)
	}
}

// BenchmarkPipeDay times one house-A day through a warm pipe over an
// in-process broker, from the request to the decoded block, with one day
// in flight: source copy, encode, publish, broker fan-out, delivery and
// decode. Its B/op is what the bus allocates per home-day once the
// warm-up days have filled the pools; a single-day run can still miss a
// pooled buffer held on the other P, so read it over a few hundred days.
func BenchmarkPipeDay(b *testing.B) {
	const warm = 8
	broker, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer broker.Close()
	blk := codecBlocks(b, "A", 1)[0]
	src := newLockstepSource(blk, warm+b.N)
	pipe, err := OpenPipeOptions(broker.Addr(), SensorTopic("A"), src, PipeOptions{ReceiveTimeout: 10 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	defer pipe.Close()
	var dst DayBlock
	for d := 0; d < warm; d++ {
		if err := src.request(pipe, &dst); err != nil {
			b.Fatal(err)
		}
	}
	frame, err := AppendBlockFrame(nil, blk, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if err := src.request(pipe, &dst); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := pipe.NextBlock(&dst); err != io.EOF {
		b.Fatalf("end of stream: %v", err)
	}
}
