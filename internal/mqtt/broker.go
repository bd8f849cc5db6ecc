// Package mqtt implements the minimal MQTT-style publish/subscribe
// transport of the prototype testbed (paper Section VI, Fig 9): sensor
// nodes publish topic-tagged measurements to a broker; the supervisory
// controller subscribes; and a man-in-the-middle proxy — the Raspberry-Pi
// attacker of the paper — can intercept and rewrite messages in flight
// (the Polymorph/Scapy packet-crafting role).
//
// The wire protocol is deliberately small and has one frame layout: a
// 4-byte big-endian body length, then the body — a kind byte (0x01
// publish, 0x02 subscribe), a 2-byte big-endian topic length, the topic,
// and for a publish an opaque payload forwarded verbatim. The broker routes
// a publish straight off its read buffer; Publish JSON-encodes its value
// into the payload and PublishRaw sends bytes as they are (the streaming
// layer's day-block frames). A frame is written field by field straight
// from its payload, and every frame-sized buffer on the receive side comes
// from one pool: the buffer each frame is read into, and the copy of a
// payload a client delivers to each matching subscription, which the
// subscriber hands back with Message.Release once it is done with it. It
// is not the MQTT 3.1.1 wire format, but it preserves the properties the
// experiment needs — topic routing, ordered delivery per connection, and
// rewritability in transit.
package mqtt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Message is one publish: a topic and its opaque payload.
type Message struct {
	Topic   string
	Payload []byte
	// pooled is the bufPool buffer behind a Payload a client delivered;
	// Release hands it back.
	pooled *[]byte
}

// Release hands the payload of a message received from a subscription
// channel back to the bus's buffer pool, where a later frame reuses it, and
// clears Payload. Only the subscriber that received m may call it, once,
// after its last read of Payload; no copy of m may be read afterwards.
// Every subscription receives its own copy of a payload, so releasing one
// never touches another's. Every consumer calls it once it has decoded a
// payload: one that never does leaves the collector a pooled buffer of at
// least 64 KiB per delivery, however small the payload. Release on a
// message the caller built does nothing.
func (m *Message) Release() {
	if m.pooled == nil {
		return
	}
	bufPool.Put(m.pooled)
	m.pooled, m.Payload = nil, nil
}

// Frame kinds: the first byte of every frame body.
const (
	kindPublish   = 0x01
	kindSubscribe = 0x02
)

// maxFrame bounds a frame to keep a malformed or malicious peer from
// forcing huge allocations.
const maxFrame = 1 << 20

// maxTopicLen bounds a frame's topic (its length field is 16-bit).
const maxTopicLen = 1<<16 - 1

// ErrFrameTooBig is returned when a peer announces an oversized frame.
var ErrFrameTooBig = errors.New("mqtt: frame exceeds limit")

// bufQuantum is the capacity step of the bus's pooled buffers: a new one is
// rounded up to a multiple of it, so a buffer first grown for one home's day
// frame (house A's is about 51 KB) fits the frame of every SynthFleet shape
// (1–3 occupants, standard appliances; the largest is about 62 KB) when the
// pool hands it on. A home with more occupants grows a 128 KiB buffer.
const bufQuantum = 64 << 10

// bufPool recycles the bus's frame-sized buffers: the buffer a read loop
// reads each frame into (see readBuf) and the payload copy a client
// delivers to each subscription (see Message.Release). Since writeFrame
// needs no encode buffer, the broker fan-out, client publish and delivery
// hot paths run without per-frame allocation, and a new connection grows
// no buffer.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// sized returns buf resliced to n bytes, or a new buffer with its capacity
// rounded up to a multiple of bufQuantum when buf is too small. It keeps no
// contents.
func sized(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n, (n+bufQuantum-1)/bufQuantum*bufQuantum)
	}
	return buf[:n]
}

// writeFrame writes one frame field by field — length prefix, kind byte,
// big-endian topic length, topic, then the payload straight from its slice
// — so it needs no encode buffer; the bus's bufio.Writers gather the small
// fields.
func writeFrame(w io.Writer, kind byte, topic string, payload []byte) error {
	if len(topic) > maxTopicLen {
		return fmt.Errorf("mqtt: topic %d bytes exceeds frame limit", len(topic))
	}
	n := 3 + len(topic) + len(payload)
	if n > maxFrame {
		return ErrFrameTooBig
	}
	var hdr [7]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(n))
	hdr[4] = kind
	binary.BigEndian.PutUint16(hdr[5:], uint16(len(topic)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := io.WriteString(w, topic); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readBuf is a read loop's frame buffer. It holds a buffer from bufPool only
// while a frame is in hand: read hands the previous frame's buffer back
// before it waits for the next header, and on any error; release hands back
// the last one when the loop exits. A connection waiting for traffic, or
// one whose read failed, holds no buffer, so a loop that outlives its
// peer's Close has nothing left to return late.
type readBuf struct{ p *[]byte }

// read reads the next length-prefixed frame body from r; the body is valid
// until the next read or release.
func (b *readBuf) read(r io.Reader) ([]byte, error) {
	b.release()
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > maxFrame {
		return nil, ErrFrameTooBig
	}
	b.p = bufPool.Get().(*[]byte)
	*b.p = sized(*b.p, n)
	if _, err := io.ReadFull(r, *b.p); err != nil {
		b.release()
		return nil, err
	}
	return *b.p, nil
}

func (b *readBuf) release() {
	if b.p != nil {
		bufPool.Put(b.p)
		b.p = nil
	}
}

// decodeBody splits a frame body into its kind and message; a subscribe
// frame's Topic is its filter and it carries no payload. The payload
// aliases body, so it lives only as long as the read buffer: a client's
// read loop hands each matching subscription its own copy (see pooledCopy).
func decodeBody(body []byte) (byte, Message, error) {
	if len(body) < 3 {
		return 0, Message{}, fmt.Errorf("mqtt: frame truncated (%d bytes)", len(body))
	}
	kind, tl := body[0], int(binary.BigEndian.Uint16(body[1:3]))
	switch {
	case kind != kindPublish && kind != kindSubscribe:
		return 0, Message{}, fmt.Errorf("mqtt: unknown frame kind %#x", kind)
	case tl > len(body)-3:
		return 0, Message{}, fmt.Errorf("mqtt: frame topic length %d exceeds body", tl)
	case kind == kindSubscribe && tl < len(body)-3:
		return 0, Message{}, errors.New("mqtt: subscribe frame carries a payload")
	}
	return kind, Message{Topic: string(body[3 : 3+tl]), Payload: body[3+tl:]}, nil
}

// pooledCopy returns m with its payload copied into a buffer from bufPool,
// owned by the one subscriber it is delivered to until it calls Release.
func pooledCopy(m Message) Message {
	bp := bufPool.Get().(*[]byte)
	*bp = sized(*bp, len(m.Payload))
	copy(*bp, m.Payload)
	m.Payload, m.pooled = *bp, bp
	return m
}

// Broker is a topic-routing pub/sub hub over TCP. It is chaos-capable:
// Suspend severs every connection and stops accepting (a broker crash),
// Resume re-binds the same address and starts accepting again (a broker
// restart) — clients dialed with DialSession ride the outage.
type Broker struct {
	addr string // bound address, stable across Suspend/Resume

	mu        sync.Mutex
	ln        net.Listener
	subs      map[string]map[net.Conn]*subscriber // exact filter → conn → writer
	wild      map[string]map[net.Conn]*subscriber // wildcard filter → conn → writer
	conns     map[net.Conn]struct{}               // every live connection
	suspended bool
	closed    bool

	wg sync.WaitGroup
}

type subscriber struct {
	mu sync.Mutex
	w  *bufio.Writer
	c  net.Conn
}

func (s *subscriber) send(m Message) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := writeFrame(s.w, kindPublish, m.Topic, m.Payload); err != nil {
		return err
	}
	return s.w.Flush()
}

// NewBroker starts a broker on addr ("127.0.0.1:0" for an ephemeral port).
func NewBroker(addr string) (*Broker, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mqtt: listen: %w", err)
	}
	b := &Broker{
		addr:  ln.Addr().String(),
		ln:    ln,
		subs:  make(map[string]map[net.Conn]*subscriber),
		wild:  make(map[string]map[net.Conn]*subscriber),
		conns: make(map[net.Conn]struct{}),
	}
	b.wg.Add(1)
	go b.acceptLoop(ln)
	return b, nil
}

// Addr returns the broker's listen address. It stays valid across
// Suspend/Resume — the restarted broker re-binds the same port.
func (b *Broker) Addr() string { return b.addr }

func (b *Broker) acceptLoop(ln net.Listener) {
	defer b.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		b.mu.Lock()
		if b.closed || b.suspended {
			b.mu.Unlock()
			conn.Close()
			return
		}
		b.conns[conn] = struct{}{}
		b.mu.Unlock()
		b.wg.Add(1)
		go b.serve(conn)
	}
}

// Suspend simulates a broker crash: the listener closes, every live
// connection is severed, and all subscription state is dropped (a real
// broker restart loses its in-memory session table). Idempotent; a no-op
// after Close.
func (b *Broker) Suspend() {
	b.mu.Lock()
	if b.closed || b.suspended {
		b.mu.Unlock()
		return
	}
	b.suspended = true
	ln := b.ln
	for conn := range b.conns {
		conn.Close()
	}
	b.subs = make(map[string]map[net.Conn]*subscriber)
	b.wild = make(map[string]map[net.Conn]*subscriber)
	b.conns = make(map[net.Conn]struct{})
	b.mu.Unlock()
	ln.Close()
}

// Resume restarts a suspended broker on its original address. The old
// port may linger briefly in the kernel after Suspend, so the re-bind
// retries for a short window before giving up.
func (b *Broker) Resume() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return errors.New("mqtt: broker closed")
	}
	if !b.suspended {
		b.mu.Unlock()
		return nil
	}
	b.mu.Unlock()
	var ln net.Listener
	var err error
	for i := 0; i < 100; i++ {
		ln, err = net.Listen("tcp", b.addr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("mqtt: resume listen: %w", err)
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		ln.Close()
		return errors.New("mqtt: broker closed")
	}
	b.ln = ln
	b.suspended = false
	b.wg.Add(1)
	b.mu.Unlock()
	go b.acceptLoop(ln)
	return nil
}

func (b *Broker) serve(conn net.Conn) {
	defer b.wg.Done()
	defer func() {
		b.dropConn(conn)
		conn.Close()
	}()
	r := bufio.NewReader(conn)
	sub := &subscriber{w: bufio.NewWriter(conn), c: conn}
	// A frame's pooled read buffer outlives its routing: publish fan-out is
	// synchronous (every subscriber write completes before the next read),
	// and a subscription keeps only its filter string.
	var rb readBuf
	defer rb.release()
	for {
		body, err := rb.read(r)
		if err != nil {
			return
		}
		kind, m, err := decodeBody(body)
		if err != nil {
			return // malformed frame: drop the client
		}
		if kind == kindPublish {
			b.publish(m)
			continue
		}
		if !ValidFilter(m.Topic) {
			return // malformed filter: drop the client
		}
		// Table selection must happen under the lock: Suspend swaps both map
		// headers when it drops the session state.
		b.mu.Lock()
		table := b.subs
		if isWildcard(m.Topic) {
			table = b.wild
		}
		if table[m.Topic] == nil {
			table[m.Topic] = make(map[net.Conn]*subscriber)
		}
		table[m.Topic][conn] = sub
		b.mu.Unlock()
	}
}

// publish routes a message to every subscription matching its topic —
// exact filters by direct lookup, wildcard filters ('+' one level, '#'
// trailing remainder) by Match — delivering at most one copy per
// connection even when multiple overlapping filters match.
func (b *Broker) publish(m Message) {
	b.mu.Lock()
	targets := make([]*subscriber, 0, len(b.subs[m.Topic]))
	for _, s := range b.subs[m.Topic] {
		targets = append(targets, s)
	}
	if len(b.wild) > 0 { // dedup only needed once wildcard filters exist
		seen := make(map[net.Conn]struct{}, len(b.subs[m.Topic]))
		for conn := range b.subs[m.Topic] {
			seen[conn] = struct{}{}
		}
		for filter, conns := range b.wild {
			if !Match(filter, m.Topic) {
				continue
			}
			for conn, s := range conns {
				if _, dup := seen[conn]; dup {
					continue
				}
				seen[conn] = struct{}{}
				targets = append(targets, s)
			}
		}
	}
	b.mu.Unlock()
	for _, s := range targets {
		if err := s.send(m); err != nil {
			b.dropConn(s.c)
		}
	}
}

func (b *Broker) dropConn(conn net.Conn) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, m := range b.subs {
		delete(m, conn)
	}
	for _, m := range b.wild {
		delete(m, conn)
	}
	delete(b.conns, conn)
}

// Close stops the broker and waits for its goroutines.
func (b *Broker) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	suspended := b.suspended
	ln := b.ln
	b.mu.Unlock()
	err := ln.Close()
	if suspended {
		err = nil // listener already closed by Suspend
	}
	b.mu.Lock()
	for conn := range b.conns {
		conn.Close()
	}
	b.subs = make(map[string]map[net.Conn]*subscriber)
	b.wild = make(map[string]map[net.Conn]*subscriber)
	b.mu.Unlock()
	b.wg.Wait()
	return err
}
