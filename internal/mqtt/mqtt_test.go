package mqtt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

func recvOrFail(t *testing.T, ch <-chan Message, what string) Message {
	t.Helper()
	select {
	case m, ok := <-ch:
		if !ok {
			t.Fatalf("%s: channel closed", what)
		}
		return m
	case <-time.After(3 * time.Second):
		t.Fatalf("%s: timed out", what)
	}
	return Message{}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, want := range []struct {
		kind    byte
		topic   string
		payload string
	}{
		{kindPublish, "sensors/temp/1", `{"f":72.5}`},
		{kindPublish, "sensors/temp/1", ""},
		{kindSubscribe, "sensors/+/1", ""},
	} {
		frame := frameBytes(t, want.kind, want.topic, []byte(want.payload))
		kind, got, err := readFrame(bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		if kind != want.kind || got.Topic != want.topic || string(got.Payload) != want.payload {
			t.Errorf("round trip of %+v: kind %#x, %+v", want, kind, got)
		}
	}
}

func TestFrameTooBig(t *testing.T) {
	var hdr [4]byte
	hdr[0] = 0xFF
	hdr[1] = 0xFF
	hdr[2] = 0xFF
	hdr[3] = 0xFF
	if _, _, err := readFrame(bytes.NewReader(hdr[:])); err != ErrFrameTooBig {
		t.Errorf("want ErrFrameTooBig, got %v", err)
	}
}

func TestPubSub(t *testing.T) {
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
	ch, err := sub.Subscribe("zone/kitchen/co2")
	if err != nil {
		t.Fatal(err)
	}

	pub, err := Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	// Give the subscription a moment to register, then publish.
	time.Sleep(50 * time.Millisecond)
	if err := pub.Publish("zone/kitchen/co2", map[string]float64{"ppm": 612}); err != nil {
		t.Fatal(err)
	}
	m := recvOrFail(t, ch, "co2 message")
	var body map[string]float64
	if err := json.Unmarshal(m.Payload, &body); err != nil {
		t.Fatal(err)
	}
	if body["ppm"] != 612 {
		t.Errorf("payload = %v", body)
	}
}

func TestTopicIsolation(t *testing.T) {
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
	chA, err := sub.Subscribe("a")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	time.Sleep(50 * time.Millisecond)
	if err := pub.Publish("b", 1); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("a", 2); err != nil {
		t.Fatal(err)
	}
	m := recvOrFail(t, chA, "topic a")
	var v int
	if err := json.Unmarshal(m.Payload, &v); err != nil || v != 2 {
		t.Errorf("topic isolation broken: got %s", m.Payload)
	}
}

func TestMultipleSubscribers(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var chans []<-chan Message
	var clients []*Client
	for i := 0; i < 3; i++ {
		c, err := Dial(b.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ch, err := c.Subscribe("fanout")
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
		chans = append(chans, ch)
	}
	_ = clients
	pub, err := Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	time.Sleep(50 * time.Millisecond)
	if err := pub.Publish("fanout", "hello"); err != nil {
		t.Fatal(err)
	}
	for i, ch := range chans {
		m := recvOrFail(t, ch, "fanout")
		if m.Topic != "fanout" {
			t.Errorf("subscriber %d: topic %q", i, m.Topic)
		}
	}
}

func TestMITMProxyRewrites(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// The attacker doubles every reported occupancy count.
	rewrite := func(m Message) Message {
		if m.Topic != "zone/kitchen/occupancy" {
			return m
		}
		var count int
		if err := json.Unmarshal(m.Payload, &count); err != nil {
			return m
		}
		forged, _ := json.Marshal(count * 2)
		m.Payload = forged
		return m
	}
	proxy, err := NewProxy("127.0.0.1:0", b.Addr(), rewrite)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// Controller subscribes directly at the broker.
	ctrl, err := Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	ch, err := ctrl.Subscribe("zone/kitchen/occupancy")
	if err != nil {
		t.Fatal(err)
	}

	// Sensor node unknowingly publishes through the MITM proxy.
	sensor, err := Dial(proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sensor.Close()
	time.Sleep(50 * time.Millisecond)
	if err := sensor.Publish("zone/kitchen/occupancy", 1); err != nil {
		t.Fatal(err)
	}
	m := recvOrFail(t, ch, "forged occupancy")
	var got int
	if err := json.Unmarshal(m.Payload, &got); err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("MITM should have doubled occupancy: got %d", got)
	}
}

func TestProxyPassThroughSubscriptions(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	proxy, err := NewProxy("127.0.0.1:0", b.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// Subscribe THROUGH the proxy; messages flow back downstream.
	sub, err := Dial(proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	ch, err := sub.Subscribe("t")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	time.Sleep(50 * time.Millisecond)
	if err := pub.Publish("t", "x"); err != nil {
		t.Fatal(err)
	}
	recvOrFail(t, ch, "proxied subscription")
}

func TestBrokerSurvivesMalformedClient(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// Raw TCP client writes garbage.
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte{0, 0, 0, 4, 'j', 'u', 'n', 'k'}); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	// The broker must still serve well-formed clients.
	sub, err := Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	ch, err := sub.Subscribe("ok")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	time.Sleep(50 * time.Millisecond)
	if err := pub.Publish("ok", true); err != nil {
		t.Fatal(err)
	}
	recvOrFail(t, ch, "post-garbage publish")
}

func TestClientCloseIdempotent(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c, err := Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second close should be a no-op, got %v", err)
	}
}

func TestSubscriberChannelClosesOnDisconnect(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	ch, err := c.Subscribe("x")
	if err != nil {
		t.Fatal(err)
	}
	b.Close() // broker goes away
	select {
	case _, ok := <-ch:
		if ok {
			t.Error("expected channel close, got message")
		}
	case <-time.After(3 * time.Second):
		t.Error("channel did not close after broker shutdown")
	}
	c.Close()
}

// TestBinaryFrameRoundTrip pins the one frame layout byte for byte: length
// prefix, kind, topic length, topic, payload. A day frame's wire bytes, and
// so the traffic volume an eavesdropper sees, are its payload plus this
// header.
func TestBinaryFrameRoundTrip(t *testing.T) {
	payload := []byte{0x00, 0x01, 'S', 'H', 0xFF, '{'}
	pub := frameBytes(t, kindPublish, "home/7", payload)
	want := append([]byte{0, 0, 0, 15, 0x01, 0, 6, 'h', 'o', 'm', 'e', '/', '7'}, payload...)
	if !bytes.Equal(pub, want) {
		t.Fatalf("publish frame = %x, want %x", pub, want)
	}
	if sub := frameBytes(t, kindSubscribe, "a/#", nil); !bytes.Equal(sub, []byte{0, 0, 0, 6, 0x02, 0, 3, 'a', '/', '#'}) {
		t.Fatalf("subscribe frame = %x", sub)
	}
	kind, got, err := readFrame(bytes.NewReader(pub))
	if err != nil {
		t.Fatal(err)
	}
	if kind != kindPublish || got.Topic != "home/7" || !bytes.Equal(got.Payload, payload) {
		t.Errorf("round trip: kind %#x, %+v", kind, got)
	}
}

// TestPublishRawThroughBroker routes a raw publish through the broker to
// exact and wildcard subscribers, followed by a JSON publish on the same
// connections: Publish is PublishRaw with a JSON-encoded payload.
func TestPublishRawThroughBroker(t *testing.T) {
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
	exact, err := sub.Subscribe("home/9/sensor")
	if err != nil {
		t.Fatal(err)
	}
	wild, err := sub.Subscribe("home/+/sensor")
	if err != nil {
		t.Fatal(err)
	}

	pub, err := Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	time.Sleep(50 * time.Millisecond)

	payload := append([]byte{0xDE, 0xAD}, bytes.Repeat([]byte{0x42}, 1024)...)
	if err := pub.PublishRaw("home/9/sensor", payload); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("home/9/sensor", map[string]int{"day": 3}); err != nil {
		t.Fatal(err)
	}
	for _, ch := range []<-chan Message{exact, wild} {
		raw := recvOrFail(t, ch, "raw publish")
		if !bytes.Equal(raw.Payload, payload) {
			t.Fatalf("raw delivery mangled: len=%d", len(raw.Payload))
		}
		jm := recvOrFail(t, ch, "json publish after raw")
		if string(jm.Payload) != `{"day":3}` {
			t.Fatalf("json delivery after raw mangled: %+v", jm)
		}
	}
}

// TestReleasedPayloadStaysWithItsSubscription: one connection holds an
// exact and a '+' filter on the same topic, so the client delivers every
// frame to two subscriptions. One consumer scribbles over each
// payload and hands it back at once; the other keeps every payload it
// receives and checks them against what was published only at the end,
// after the pool has recycled the released buffers frames over. A payload
// shared between the subscriptions, or a released buffer handed to a later
// delivery while still held, shows up as wrong bytes (and under -race as a
// data race).
func TestReleasedPayloadStaysWithItsSubscription(t *testing.T) {
	const frames = 200
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c, err := Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	exact, err := c.Subscribe("home/5/sensor")
	if err != nil {
		t.Fatal(err)
	}
	wild, err := c.Subscribe("home/+/sensor")
	if err != nil {
		t.Fatal(err)
	}
	frame := func(i int) []byte {
		p := make([]byte, 900+(i*613)%5000)
		for j := range p {
			p[j] = byte(i*31 + j)
		}
		return p
	}
	recv := func(ch <-chan Message, i int) (Message, error) {
		select {
		case m, ok := <-ch:
			if !ok {
				return Message{}, fmt.Errorf("subscription closed before frame %d", i)
			}
			return m, nil
		case <-time.After(10 * time.Second):
			return Message{}, fmt.Errorf("frame %d not delivered", i)
		}
	}
	released := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			m, err := recv(exact, i)
			if err != nil {
				released <- err
				return
			}
			if !bytes.Equal(m.Payload, frame(i)) {
				released <- fmt.Errorf("releasing subscription: frame %d arrived mangled", i)
				return
			}
			for j := range m.Payload {
				m.Payload[j] = 0xEE
			}
			m.Release()
			if m.Payload != nil {
				released <- fmt.Errorf("frame %d: Release left the payload in place", i)
				return
			}
		}
		released <- nil
	}()
	kept := make(chan []Message, 1)
	keepErr := make(chan error, 1)
	go func() {
		ms := make([]Message, 0, frames)
		for i := 0; i < frames; i++ {
			m, err := recv(wild, i)
			if err != nil {
				keepErr <- err
				return
			}
			ms = append(ms, m)
		}
		kept <- ms
	}()
	// Publishing on the subscribing connection orders every frame after
	// both subscriptions.
	for i := 0; i < frames; i++ {
		if err := c.PublishRaw("home/5/sensor", frame(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-released; err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-keepErr:
		t.Fatal(err)
	case ms := <-kept:
		for i, m := range ms {
			if !bytes.Equal(m.Payload, frame(i)) {
				t.Fatalf("keeping subscription: frame %d changed after the other subscription released its copy", i)
			}
		}
	}
}

// TestProxyForwardsBinary checks that the MITM proxy's Rewrite sees every
// publish, raw ones included, and that a publish it returns unchanged
// reaches the broker byte for byte.
func TestProxyForwardsBinary(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var rewrites atomic.Int32
	proxy, err := NewProxy("127.0.0.1:0", b.Addr(), func(m Message) Message {
		rewrites.Add(1)
		return m
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	sub, err := Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	ch, err := sub.Subscribe("home/5/sensor")
	if err != nil {
		t.Fatal(err)
	}

	pub, err := Dial(proxy.Addr()) // dials the attacker thinking it is the broker
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	time.Sleep(50 * time.Millisecond)

	payload := []byte{kindPublish, 0x00, 0x07, 'o', 'p', 'a', 'q', 'u', 'e', '!'}
	if err := pub.PublishRaw("home/5/sensor", payload); err != nil {
		t.Fatal(err)
	}
	m := recvOrFail(t, ch, "raw publish via proxy")
	if !bytes.Equal(m.Payload, payload) {
		t.Fatalf("proxy mangled a raw publish: %+v", m)
	}
	if n := rewrites.Load(); n != 1 {
		t.Fatalf("proxy rewrite hook fired %d times for one publish", n)
	}
}
