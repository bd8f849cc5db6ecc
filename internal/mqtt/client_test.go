package mqtt

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestBackoffDelay pins the exponential schedule and its defaults.
func TestBackoffDelay(t *testing.T) {
	var zero Backoff
	if d := zero.Delay(0); d != 50*time.Millisecond {
		t.Fatalf("default base delay = %s", d)
	}
	if d := zero.Delay(20); d != 2*time.Second {
		t.Fatalf("default cap = %s", d)
	}
	b := Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond}
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		if d := b.Delay(i); d != w*time.Millisecond {
			t.Fatalf("Delay(%d) = %s, want %dms", i, d, w)
		}
	}
}

// TestCloseUnblocksPublishBehindStalledSubscriber: a subscriber that stops
// reading backs the broker up until the publisher's socket write blocks
// with the write lock held. Close must still return promptly: it closes
// the connection first, which fails the blocked write.
func TestCloseUnblocksPublishBehindStalledSubscriber(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	sub, err := Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if _, err := sub.Subscribe("t"); err != nil { // never read
		t.Fatal(err)
	}
	pub, err := Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// Frames published before the broker registers the subscription are
	// not routed; they only delay the stall.
	var sent atomic.Int64
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		payload := make([]byte, 256<<10)
		for pub.PublishRaw("t", payload) == nil {
			sent.Add(1)
		}
	}()
	// Wait until the publisher stops making progress: its write is blocked.
	deadline := time.Now().Add(10 * time.Second)
	last, still := int64(-1), 0
	for still < 6 {
		if time.Now().After(deadline) {
			t.Fatal("publishes never blocked behind the stalled subscriber")
		}
		time.Sleep(50 * time.Millisecond)
		if n := sent.Load(); n == last {
			still++
		} else {
			last, still = n, 0
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- pub.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close hung behind a publish blocked on a stalled subscriber")
	}
	<-stopped
}
