package mqtt

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Backoff is an exponential retry schedule: Delay(0) == Base and each
// further attempt doubles it up to Max. The zero value uses the package
// defaults (50ms base, 2s cap).
type Backoff struct {
	Base time.Duration
	Max  time.Duration
}

// Delay returns the wait before retry number attempt (0-based).
func (b Backoff) Delay(attempt int) time.Duration {
	base, max := b.Base, b.Max
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if max <= 0 {
		max = 2 * time.Second
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}

// DialOptions configures connection establishment and per-frame deadlines.
// The zero value matches the historical Dial behaviour plus a 10s dial
// deadline (a dead broker address fails instead of hanging in the kernel).
type DialOptions struct {
	// Timeout bounds each TCP connection attempt; 0 defaults to 10s.
	Timeout time.Duration
	// Attempts is the number of dial attempts before giving up, with
	// exponential backoff between them; 0 defaults to 1 (no retry).
	Attempts int
	// Backoff schedules the delay between dial attempts.
	Backoff Backoff
	// WriteTimeout bounds each control-frame write (publish/subscribe) on
	// the resulting client; 0 leaves writes unbounded.
	WriteTimeout time.Duration

	// Redial enables session resume: when an established connection is
	// lost, the client redials (Timeout per attempt, Backoff between
	// attempts) and transparently re-issues every active subscription, so
	// subscription channels stay open across a broker restart. Publishes
	// issued while the connection is down fail fast with ErrDisconnected;
	// frames the broker would have delivered during the outage are lost
	// (the transport is at-most-once), which callers absorb with their own
	// sequencing/retry machinery.
	Redial bool
	// RedialAttempts bounds reconnection attempts per outage; 0 (the
	// default) retries until Close — the right behaviour for long-running
	// services that must outlive arbitrary broker downtime.
	RedialAttempts int
}

// ErrDisconnected is returned by publishes and subscribes issued while a
// redial-enabled client is between connections.
var ErrDisconnected = errors.New("mqtt: connection down (session resuming)")

// Client is a broker connection that can publish and subscribe. With
// DialOptions.Redial it is a session: the connection underneath may be
// replaced after a broker restart while subscriptions persist.
type Client struct {
	addr         string
	opts         DialOptions
	writeTimeout time.Duration

	// wmu serializes writes. conn is replaced only under both wmu and mu,
	// so Close can read it under mu alone, without waiting behind a write
	// blocked on a peer that stopped reading.
	wmu  sync.Mutex
	conn net.Conn
	w    *bufio.Writer
	down bool // between connections (redial in progress)

	mu     sync.Mutex
	subs   map[string][]chan Message
	closed bool

	done chan struct{}
	wg   sync.WaitGroup
}

// Dial connects to a broker (or a MITM proxy posing as one) with default
// options.
func Dial(addr string) (*Client, error) {
	return DialWithOptions(addr, DialOptions{})
}

// DialWithOptions connects to a broker with bounded dial attempts: each
// attempt gets o.Timeout, and failed attempts back off exponentially
// before redialing — the reconnect schedule a fleet client rides through a
// broker restart.
func DialWithOptions(addr string, o DialOptions) (*Client, error) {
	attempts := o.Attempts
	if attempts <= 0 {
		attempts = 1
	}
	var conn net.Conn
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(o.Backoff.Delay(i - 1))
		}
		conn, err = net.DialTimeout("tcp", addr, dialTimeout(o))
		if err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("mqtt: dial (%d attempts): %w", attempts, err)
	}
	c := &Client{
		addr:         addr,
		opts:         o,
		conn:         conn,
		writeTimeout: o.WriteTimeout,
		w:            bufio.NewWriter(conn),
		subs:         make(map[string][]chan Message),
		done:         make(chan struct{}),
	}
	c.wg.Add(1)
	go c.readLoop()
	return c, nil
}

func dialTimeout(o DialOptions) time.Duration {
	if o.Timeout > 0 {
		return o.Timeout
	}
	return 10 * time.Second
}

func (c *Client) readLoop() {
	defer c.wg.Done()
	// Close every subscription channel on the way out — on the read-error
	// path AND the done path (Close racing a blocked dispatch below). A
	// channel left open here strands its consumer until its own receive
	// timeout instead of failing fast with a closed-connection signal.
	defer func() {
		c.mu.Lock()
		for _, chans := range c.subs {
			for _, ch := range chans {
				close(ch)
			}
		}
		c.subs = make(map[string][]chan Message)
		c.mu.Unlock()
	}()
	// Each frame is read into a pooled buffer that the next read hands
	// back; a failed read hands it back at once, so a session resume holds
	// none. Nothing delivered aliases it: decodeBody leaves a binary payload
	// in it, and each matching subscription gets its own pooled copy (JSON
	// payloads are copied by the decoder).
	var rb readBuf
	defer rb.release()
	r := bufio.NewReader(c.conn)
	var chans []chan Message
	for {
		body, rerr := rb.read(r)
		if rerr != nil {
			// Session resume: a lost connection redials and resubscribes
			// instead of tearing the session down.
			if r = c.resume(); r == nil {
				return
			}
			continue
		}
		m, err := decodeBody(body)
		if err != nil {
			return
		}
		// Dispatch to every subscription whose filter matches the topic;
		// each subscription sees the message once.
		c.mu.Lock()
		chans = append(chans[:0], c.subs[m.Topic]...)
		for filter, fchans := range c.subs {
			if filter == m.Topic || !isWildcard(filter) || !Match(filter, m.Topic) {
				continue
			}
			chans = append(chans, fchans...)
		}
		c.mu.Unlock()
		for _, ch := range chans {
			d := m
			if m.Binary {
				// A subscriber may Release its copy while another still
				// reads its own; all are copied from the read buffer, which
				// the next read alone reuses.
				d = pooledCopy(m)
			}
			select {
			case ch <- d:
			case <-c.done:
				return
			}
		}
	}
}

// resume is the session-resume loop the read loop falls into when its
// connection dies: redial with the configured backoff, swap the connection
// in under the write lock, re-issue every active subscription, and hand a
// reader over the new connection back. Returns nil when redial is disabled,
// the attempt budget is exhausted, or the client closed — the read loop
// then winds the session down.
func (c *Client) resume() *bufio.Reader {
	if !c.opts.Redial || c.isClosed() {
		return nil
	}
	c.wmu.Lock()
	c.down = true
	c.wmu.Unlock()
	// Dials abort promptly when Close fires mid-outage.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-c.done:
			cancel()
		case <-ctx.Done():
		}
	}()
	for attempt := 0; c.opts.RedialAttempts == 0 || attempt < c.opts.RedialAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-c.done:
				return nil
			case <-time.After(c.opts.Backoff.Delay(attempt - 1)):
			}
		}
		if c.isClosed() {
			return nil
		}
		d := net.Dialer{Timeout: dialTimeout(c.opts)}
		conn, err := d.DialContext(ctx, "tcp", c.addr)
		if err != nil {
			continue
		}
		// The swap checks closed in the same critical section Close sets it
		// in, so a connection Close did not see is never installed.
		c.wmu.Lock()
		c.mu.Lock()
		filters := make([]string, 0, len(c.subs))
		for f := range c.subs {
			filters = append(filters, f)
		}
		closed := c.closed
		old := c.conn
		if !closed {
			c.conn, c.w = conn, bufio.NewWriter(conn)
			c.down = false
		}
		c.mu.Unlock()
		c.wmu.Unlock()
		if closed {
			conn.Close()
			return nil
		}
		old.Close()
		// Re-register every active subscription on the new connection; a
		// failure here is just a failed attempt — mark the session down
		// again and keep redialing.
		resubscribed := true
		for _, f := range filters {
			if err := c.sendControl(control{Op: "sub", Topic: f}); err != nil {
				resubscribed = false
				break
			}
		}
		if !resubscribed {
			c.wmu.Lock()
			c.down = true
			c.wmu.Unlock()
			conn.Close()
			continue
		}
		return bufio.NewReader(conn)
	}
	return nil
}

func (c *Client) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

func (c *Client) sendControl(ctl control) error {
	payload, err := json.Marshal(ctl)
	if err != nil {
		return err
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.down {
		return fmt.Errorf("mqtt: %s %q: %w", ctl.Op, ctl.Topic+ctl.Msg.Topic, ErrDisconnected)
	}
	if c.writeTimeout > 0 {
		if err := c.conn.SetWriteDeadline(time.Now().Add(c.writeTimeout)); err != nil {
			return err
		}
	}
	if err := writeFrame(c.w, Message{Topic: "$ctl", Payload: payload}); err != nil {
		return err
	}
	return c.w.Flush()
}

// Publish sends payload (JSON-encoded) on the topic.
func (c *Client) Publish(topic string, payload any) error {
	data, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("mqtt: encode payload: %w", err)
	}
	return c.sendControl(control{Op: "pub", Msg: Message{Topic: topic, Payload: data}})
}

// PublishRaw sends an opaque binary payload on the topic through the binary
// frame kind — no JSON encoding on the client, the broker, or the delivery
// path, and no encode buffer: the payload is written to the wire straight
// from its slice before return, so callers may reuse its storage
// immediately.
func (c *Client) PublishRaw(topic string, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.down {
		return fmt.Errorf("mqtt: pub %q: %w", topic, ErrDisconnected)
	}
	if c.writeTimeout > 0 {
		if err := c.conn.SetWriteDeadline(time.Now().Add(c.writeTimeout)); err != nil {
			return err
		}
	}
	if err := writeFrame(c.w, Message{Topic: topic, Payload: payload, Binary: true}); err != nil {
		return err
	}
	return c.w.Flush()
}

// ErrBadFilter is returned for malformed subscription filters.
var ErrBadFilter = errors.New("mqtt: malformed topic filter")

// Subscribe registers for a topic filter and returns the delivery channel.
// Filters may use MQTT wildcards: '+' matches one level, a trailing '#'
// matches the remainder (so "home/+/sensor" collects every home's sensor
// stream). The channel closes when the client disconnects.
func (c *Client) Subscribe(topic string) (<-chan Message, error) {
	if !ValidFilter(topic) {
		return nil, fmt.Errorf("%w: %q", ErrBadFilter, topic)
	}
	ch := make(chan Message, 64)
	c.mu.Lock()
	c.subs[topic] = append(c.subs[topic], ch)
	c.mu.Unlock()
	if err := c.sendControl(control{Op: "sub", Topic: topic}); err != nil {
		return nil, err
	}
	return ch, nil
}

// Close disconnects and waits for the reader goroutine. It closes the live
// connection before anything else: a publish blocked in a socket write
// holds the write lock until the write fails, and the write never finishes
// while the subscribers downstream are not reading.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conn := c.conn
	c.mu.Unlock()
	close(c.done)
	err := conn.Close()
	if errors.Is(err, net.ErrClosed) {
		err = nil // a failed resume already closed it
	}
	c.wg.Wait()
	return err
}

// Proxy is the man-in-the-middle attacker: clients dial the proxy thinking
// it is the broker; every frame passes through Rewrite before forwarding
// (ARP-poisoning + packet-crafting, Section VI).
type Proxy struct {
	ln     net.Listener
	target string
	// Rewrite transforms broker-bound frames; returning the message
	// unchanged forwards it verbatim. Only "pub" control frames reach it.
	Rewrite func(Message) Message

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	wg sync.WaitGroup
}

// NewProxy starts a MITM proxy on addr forwarding to the broker at target.
func NewProxy(addr, target string, rewrite func(Message) Message) (*Proxy, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mqtt: proxy listen: %w", err)
	}
	p := &Proxy{ln: ln, target: target, Rewrite: rewrite, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

func (p *Proxy) track(conn net.Conn) {
	p.mu.Lock()
	p.conns[conn] = struct{}{}
	p.mu.Unlock()
}

func (p *Proxy) untrack(conn net.Conn) {
	p.mu.Lock()
	delete(p.conns, conn)
	p.mu.Unlock()
}

// Addr returns the proxy's listen address.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go p.bridge(conn)
	}
}

func (p *Proxy) bridge(client net.Conn) {
	defer p.wg.Done()
	p.track(client)
	defer p.untrack(client)
	defer client.Close()
	upstream, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	p.track(upstream)
	defer p.untrack(upstream)
	defer upstream.Close()

	// Downstream (broker → client): verbatim body copy, no decoding at all.
	// Each direction reads through its own pooled buffer.
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer client.Close()
		defer upstream.Close()
		r := bufio.NewReader(upstream)
		w := bufio.NewWriter(client)
		var rb readBuf
		defer rb.release()
		for {
			body, err := rb.read(r)
			if err != nil {
				return
			}
			if err := writeBody(w, body); err != nil {
				return
			}
			if err := w.Flush(); err != nil {
				return
			}
		}
	}()

	// Upstream (client → broker): rewrite published measurements. Rewrite
	// applies to the JSON publish envelope; binary bodies forward verbatim
	// (the fleet's clean-path block frames are not this attacker's target).
	r := bufio.NewReader(client)
	w := bufio.NewWriter(upstream)
	var rb readBuf
	defer rb.release()
	for {
		body, err := rb.read(r)
		if err != nil {
			return
		}
		if len(body) > 0 && body[0] == binFrameKind {
			if err := writeBody(w, body); err != nil {
				return
			}
			if err := w.Flush(); err != nil {
				return
			}
			continue
		}
		var m Message
		if err := json.Unmarshal(body, &m); err != nil {
			return
		}
		var ctl control
		if err := json.Unmarshal(m.Payload, &ctl); err == nil && ctl.Op == "pub" && p.Rewrite != nil {
			ctl.Msg = p.Rewrite(ctl.Msg)
			payload, err := json.Marshal(ctl)
			if err != nil {
				return
			}
			m.Payload = payload
		}
		if err := writeFrame(w, m); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// Close stops the proxy, severs live bridges, and waits for its goroutines.
func (p *Proxy) Close() error {
	err := p.ln.Close()
	p.mu.Lock()
	for conn := range p.conns {
		conn.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
	return err
}
