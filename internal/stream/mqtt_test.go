package stream

import (
	"errors"
	"io"
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
