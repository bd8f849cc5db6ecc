// Package mqtt implements the minimal MQTT-style publish/subscribe
// transport of the prototype testbed (paper Section VI, Fig 9): sensor
// nodes publish topic-tagged measurements to a broker; the supervisory
// controller subscribes; and a man-in-the-middle proxy — the Raspberry-Pi
// attacker of the paper — can intercept and rewrite messages in flight
// (the Polymorph/Scapy packet-crafting role).
//
// The wire protocol is deliberately small: a 4-byte big-endian frame length
// followed by a frame body. Bodies come in two kinds, classified by their
// first byte: '{' opens the JSON-encoded Message envelope (control frames,
// ordinary publishes), and 0x01 opens the binary publish layout — kind byte,
// 2-byte big-endian topic length, topic, then an opaque payload forwarded
// verbatim. Binary publishes are routed without any JSON work on either the
// broker or the client path; they carry the streaming layer's day-block
// frames. A binary frame is written straight from its payload, and every
// frame-sized buffer on the receive side comes from one pool: the buffer
// each frame is read into, and the copy of a binary payload a client
// delivers to each matching subscription, which the subscriber hands back
// with Message.Release once it is done with it. It is not the MQTT 3.1.1
// wire format, but it preserves the properties the experiment needs —
// topic routing, ordered delivery per connection, and rewritability in
// transit.
package mqtt

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Message is one published datum. Ordinary messages carry JSON payloads
// through the JSON envelope; Binary marks a raw publish (PublishRaw) whose
// Payload is opaque bytes framed in the binary wire layout.
type Message struct {
	Topic   string          `json:"topic"`
	Payload json.RawMessage `json:"payload"`
	// Binary selects the binary frame kind on the wire. It never appears in
	// JSON — the kind is a framing property, not message content.
	Binary bool `json:"-"`
	// pooled is the bufPool buffer behind a binary Payload a client
	// delivered; Release hands it back.
	pooled *[]byte
}

// Release hands the payload of a binary message received from a
// subscription channel back to the bus's buffer pool, where a later frame
// reuses it, and clears Payload. Only the subscriber that received m may
// call it, once, after its last read of Payload; no copy of m may be read
// afterwards. Every subscription receives its own copy of a payload, so
// releasing one never touches another's. A payload that is never released
// is simply collected. Release on any other message (JSON, or one the
// caller built) does nothing.
func (m *Message) Release() {
	if m.pooled == nil {
		return
	}
	bufPool.Put(m.pooled)
	m.pooled, m.Payload = nil, nil
}

// maxFrame bounds a frame to keep a malformed or malicious peer from
// forcing huge allocations.
const maxFrame = 1 << 20

// binFrameKind is the first body byte of a binary publish frame. JSON
// envelope bodies always start with '{', so one byte classifies a body.
const binFrameKind = 0x01

// maxTopicLen bounds a binary frame's topic (its length field is 16-bit).
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

// decodeBinaryBody splits a binary frame body into topic and payload. The
// payload aliases body — callers that retain it must copy.
func decodeBinaryBody(body []byte) (topic string, payload []byte, err error) {
	if len(body) < 3 {
		return "", nil, fmt.Errorf("mqtt: binary frame truncated (%d bytes)", len(body))
	}
	tl := int(binary.BigEndian.Uint16(body[1:3]))
	if tl > len(body)-3 {
		return "", nil, fmt.Errorf("mqtt: binary frame topic length %d exceeds body", tl)
	}
	return string(body[3 : 3+tl]), body[3+tl:], nil
}

// writeBody writes one length-prefixed frame body.
func writeBody(w io.Writer, body []byte) error {
	if len(body) > maxFrame {
		return ErrFrameTooBig
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// writeFrame encodes and writes one message in its wire kind: the JSON
// envelope for ordinary messages, the binary layout for Binary ones. A
// binary frame is written field by field — length prefix, kind byte,
// big-endian topic length, topic, then the payload straight from m — so it
// needs no encode buffer; the bus's bufio.Writers gather the small fields.
func writeFrame(w io.Writer, m Message) error {
	if m.Binary {
		if len(m.Topic) > maxTopicLen {
			return fmt.Errorf("mqtt: topic %d bytes exceeds binary frame limit", len(m.Topic))
		}
		n := 3 + len(m.Topic) + len(m.Payload)
		if n > maxFrame {
			return ErrFrameTooBig
		}
		var hdr [7]byte
		binary.BigEndian.PutUint32(hdr[:4], uint32(n))
		hdr[4] = binFrameKind
		binary.BigEndian.PutUint16(hdr[5:], uint16(len(m.Topic)))
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := io.WriteString(w, m.Topic); err != nil {
			return err
		}
		_, err := w.Write(m.Payload)
		return err
	}
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("mqtt: marshal: %w", err)
	}
	return writeBody(w, data)
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

// decodeBody classifies and decodes a frame body. A binary payload aliases
// body, so it lives only as long as the read buffer: a client's read loop
// hands each matching subscription its own copy (see pooledCopy). The JSON
// decoder copies inherently.
func decodeBody(body []byte) (Message, error) {
	if len(body) > 0 && body[0] == binFrameKind {
		topic, payload, err := decodeBinaryBody(body)
		if err != nil {
			return Message{}, err
		}
		return Message{Topic: topic, Payload: payload, Binary: true}, nil
	}
	var m Message
	if err := json.Unmarshal(body, &m); err != nil {
		return Message{}, fmt.Errorf("mqtt: unmarshal: %w", err)
	}
	return m, nil
}

// pooledCopy returns m with its binary payload copied into a buffer from
// bufPool, owned by the one subscriber it is delivered to until it calls
// Release.
func pooledCopy(m Message) Message {
	bp := bufPool.Get().(*[]byte)
	*bp = sized(*bp, len(m.Payload))
	copy(*bp, m.Payload)
	m.Payload, m.pooled = *bp, bp
	return m
}

// readFrame reads and decodes one message. It never releases its read
// buffer, so a binary payload aliasing it stays valid and is collected with
// the message.
func readFrame(r io.Reader) (Message, error) {
	var rb readBuf
	body, err := rb.read(r)
	if err != nil {
		return Message{}, err
	}
	return decodeBody(body)
}

// control frames clients send to the broker.
type control struct {
	Op    string  `json:"op"` // "sub" or "pub"
	Topic string  `json:"topic,omitempty"`
	Msg   Message `json:"msg,omitempty"`
}

// Broker is a topic-routing pub/sub hub over TCP. It is chaos-capable:
// Suspend severs every connection and stops accepting (a broker crash),
// Resume re-binds the same address and starts accepting again (a broker
// restart) — redial-enabled clients ride the outage via session resume.
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
	if err := writeFrame(s.w, m); err != nil {
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
	// and the JSON decoder copies what it keeps.
	var rb readBuf
	defer rb.release()
	for {
		body, err := rb.read(r)
		if err != nil {
			return
		}
		if len(body) > 0 && body[0] == binFrameKind {
			// A binary body is an implicit publish: route it straight off the
			// read buffer with zero JSON work and zero payload copies.
			topic, payload, derr := decodeBinaryBody(body)
			if derr != nil {
				return // malformed frame: drop the client
			}
			b.publish(Message{Topic: topic, Payload: payload, Binary: true})
			continue
		}
		var m Message
		if err := json.Unmarshal(body, &m); err != nil {
			return // malformed frame: drop the client
		}
		var ctl control
		if err := json.Unmarshal(m.Payload, &ctl); err != nil {
			return // malformed control frame: drop the client
		}
		switch ctl.Op {
		case "sub":
			if !ValidFilter(ctl.Topic) {
				return // malformed filter: drop the client
			}
			// Table selection must happen under the lock: Suspend swaps both
			// map headers when it drops the session state.
			b.mu.Lock()
			table := b.subs
			if isWildcard(ctl.Topic) {
				table = b.wild
			}
			if table[ctl.Topic] == nil {
				table[ctl.Topic] = make(map[net.Conn]*subscriber)
			}
			table[ctl.Topic][conn] = sub
			b.mu.Unlock()
		case "pub":
			b.publish(ctl.Msg)
		default:
			return // protocol violation
		}
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
