package mqtt

import (
	"errors"
	"net"
	"strings"
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

// TestDialWithOptionsRetry: a dead address is retried the configured number
// of times with backoff, then fails with the attempt count in the error.
func TestDialWithOptionsRetry(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	start := time.Now()
	_, err = DialWithOptions(dead, DialOptions{
		Timeout:  200 * time.Millisecond,
		Attempts: 3,
		Backoff:  Backoff{Base: 20 * time.Millisecond, Max: 40 * time.Millisecond},
	})
	if err == nil || !strings.Contains(err.Error(), "3 attempts") {
		t.Fatalf("err = %v, want failure naming 3 attempts", err)
	}
	// Two backoff sleeps (20ms + 40ms) must have elapsed.
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Fatalf("retries returned in %s, backoff not applied", elapsed)
	}
}

// TestDialWithOptionsRecovers: the retry loop rides through a broker that
// comes up between attempts — the reconnect path of a fleet client.
func TestDialWithOptionsRecovers(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	// Re-listen on the same address after the first attempt has failed.
	brokerCh := make(chan *Broker, 1)
	go func() {
		time.Sleep(50 * time.Millisecond)
		b, err := NewBroker(addr)
		if err != nil {
			brokerCh <- nil
			return
		}
		brokerCh <- b
	}()
	c, err := DialWithOptions(addr, DialOptions{
		Timeout:  200 * time.Millisecond,
		Attempts: 10,
		Backoff:  Backoff{Base: 30 * time.Millisecond, Max: 30 * time.Millisecond},
	})
	b := <-brokerCh
	if b == nil {
		t.Skipf("could not rebind %s", addr)
	}
	defer b.Close()
	if err != nil {
		t.Fatalf("dial never recovered: %v", err)
	}
	c.Close()
}

// TestClientWriteTimeout: a peer that accepts but never reads must not
// wedge Publish forever — once the kernel buffers fill, the write deadline
// fires and the call errors.
func TestClientWriteTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- conn // held open, never read
	}()

	c, err := DialWithOptions(ln.Addr().String(), DialOptions{
		Timeout:      time.Second,
		WriteTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer func() {
		if conn := <-accepted; conn != nil {
			conn.Close()
		}
	}()

	// Large payloads fill the socket buffers quickly; the publish that
	// blocks must fail within the write deadline.
	payload := strings.Repeat("x", 512<<10)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if err := c.Publish("t", payload); err != nil {
			var nerr net.Error
			if !errors.As(err, &nerr) || !nerr.Timeout() {
				t.Fatalf("publish failed with %v, want a timeout", err)
			}
			return
		}
	}
	t.Fatal("publishes never hit the write deadline")
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
