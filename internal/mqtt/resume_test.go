package mqtt

import (
	"errors"
	"testing"
	"time"
)

// TestSessionResumeAcrossBrokerRestart drives the full outage ride: an
// established session loses its broker, fails publishes fast while down,
// then transparently redials, resubscribes, and delivers again on the same
// subscription channel.
func TestSessionResumeAcrossBrokerRestart(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c, err := DialSession(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ch, err := c.Subscribe("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Publish("t", 1); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery before the outage")
	}

	b.Suspend()
	// The client notices the severed connection and fails publishes fast.
	// The first write after the cut may drain into the kernel buffer, so
	// poll until the session marks itself down.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := c.Publish("t", 0)
		if errors.Is(err, ErrDisconnected) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("publish never failed with ErrDisconnected during the outage (last: %v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := b.Resume(); err != nil {
		t.Fatal(err)
	}
	// The session redials and resubscribes on its own; frames published in
	// the gap are lost (at-most-once), so publish until one round-trips.
	deadline = time.Now().Add(10 * time.Second)
	for delivered := false; !delivered; {
		if time.Now().After(deadline) {
			t.Fatal("subscription never came back after broker restart")
		}
		if err := c.Publish("t", 2); err != nil {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		select {
		case _, ok := <-ch:
			if !ok {
				t.Fatal("subscription channel closed across the outage")
			}
			delivered = true
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// TestCloseDuringOutage: Close must not hang while the session is mid-redial
// against a dead broker.
func TestCloseDuringOutage(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialSession(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Subscribe("t"); err != nil {
		t.Fatal(err)
	}
	b.Close()
	time.Sleep(20 * time.Millisecond) // let the resume loop start
	done := make(chan struct{})
	go func() {
		c.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung during session resume")
	}
}

// TestBrokerSuspendResumeFreshClients: after a Resume, clients without
// session resume can dial the same address from scratch.
func TestBrokerSuspendResumeFreshClients(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	addr := b.Addr()
	b.Suspend()
	b.Suspend() // idempotent
	if _, err := Dial(addr); err == nil {
		t.Fatal("dial succeeded against a suspended broker")
	}
	if err := b.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := b.Resume(); err != nil { // idempotent
		t.Fatal(err)
	}
	if b.Addr() != addr {
		t.Fatalf("address changed across restart: %s vs %s", b.Addr(), addr)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial after resume: %v", err)
	}
	defer c.Close()
	ch, err := c.Subscribe("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Publish("t", 1); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("restarted broker does not route")
	}
}
