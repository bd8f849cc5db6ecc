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

// dialTimeout bounds each TCP connection attempt, so a dead broker address
// fails instead of hanging in the kernel.
const dialTimeout = 10 * time.Second

// ErrDisconnected is returned by publishes and subscribes issued while a
// session (DialSession) is between connections.
var ErrDisconnected = errors.New("mqtt: connection down (session resuming)")

// Client is a broker connection that can publish and subscribe. Dialed with
// DialSession it is a session: the connection underneath may be replaced
// after a broker restart while subscriptions persist.
type Client struct {
	addr    string
	session bool

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

// Dial connects to a broker (or a MITM proxy posing as one) in one attempt.
// The client never reconnects: when its connection is lost, every
// subscription channel closes, so a consumer fails at once instead of
// waiting for frames a restarted broker dropped.
func Dial(addr string) (*Client, error) { return dial(addr, false) }

// DialSession connects like Dial but returns a session: when an
// established connection is lost, the client redials until Close, with
// Backoff's default schedule between attempts, and re-issues every active
// subscription, so subscription channels stay open across a broker
// restart. Publishes and subscribes issued while the connection is down
// fail fast with ErrDisconnected; frames the broker would have delivered
// during the outage are lost (the transport is at-most-once), which callers
// absorb with their own retry machinery.
func DialSession(addr string) (*Client, error) { return dial(addr, true) }

func dial(addr string, session bool) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("mqtt: dial: %w", err)
	}
	c := &Client{
		addr:    addr,
		session: session,
		conn:    conn,
		w:       bufio.NewWriter(conn),
		subs:    make(map[string][]chan Message),
		done:    make(chan struct{}),
	}
	c.wg.Add(1)
	go c.readLoop()
	return c, nil
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
	// none. Nothing delivered aliases it: decodeBody leaves the payload in
	// it, and each matching subscription gets its own pooled copy.
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
		kind, m, err := decodeBody(body)
		if err != nil || kind != kindPublish {
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
			// A subscriber may Release its copy while another still reads
			// its own; all are copied from the read buffer, which the next
			// read alone reuses.
			select {
			case ch <- pooledCopy(m):
			case <-c.done:
				return
			}
		}
	}
}

// resume is the session-resume loop the read loop falls into when its
// connection dies: redial with Backoff's default schedule, swap the
// connection in under the write lock, re-issue every active subscription,
// and hand a reader over the new connection back. Returns nil for a client
// that is not a session or has closed — the read loop then winds it down.
func (c *Client) resume() *bufio.Reader {
	if !c.session || c.isClosed() {
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
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			select {
			case <-c.done:
				return nil
			case <-time.After(Backoff{}.Delay(attempt - 1)):
			}
		}
		if c.isClosed() {
			return nil
		}
		d := net.Dialer{Timeout: dialTimeout}
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
			if err := c.send(kindSubscribe, f, nil); err != nil {
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
}

func (c *Client) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// send writes one frame on the live connection.
func (c *Client) send(kind byte, topic string, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.down {
		return fmt.Errorf("mqtt: %q: %w", topic, ErrDisconnected)
	}
	if err := writeFrame(c.w, kind, topic, payload); err != nil {
		return err
	}
	return c.w.Flush()
}

// Publish sends payload, JSON-encoded, on the topic.
func (c *Client) Publish(topic string, payload any) error {
	data, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("mqtt: encode payload: %w", err)
	}
	return c.PublishRaw(topic, data)
}

// PublishRaw sends an opaque payload on the topic, with no encoding on the
// client, the broker, or the delivery path, and no encode buffer: the
// payload is written to the wire straight from its slice before return, so
// callers may reuse its storage immediately.
func (c *Client) PublishRaw(topic string, payload []byte) error {
	return c.send(kindPublish, topic, payload)
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
	if err := c.send(kindSubscribe, topic, nil); err != nil {
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
// it is the broker, and every publish they send passes through Rewrite
// before it is forwarded (ARP-poisoning + packet-crafting, Section VI).
type Proxy struct {
	ln     net.Listener
	target string
	// Rewrite transforms every broker-bound publish; returning the message
	// unchanged forwards its frame byte for byte. Subscribes and the
	// broker's deliveries pass through untouched, and a nil Rewrite
	// forwards everything.
	Rewrite func(Message) Message

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	wg sync.WaitGroup
}

// NewProxy starts a MITM proxy on addr forwarding to the broker at target,
// with rewrite as its Rewrite.
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
	upstream, err := net.Dial("tcp", p.target)
	if err != nil {
		client.Close()
		return
	}
	p.track(upstream)
	defer p.untrack(upstream)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		forward(client, upstream, nil) // deliveries: broker → client
	}()
	forward(upstream, client, p.Rewrite)
}

// forward copies frames from src to dst until either connection fails, then
// closes both, which ends the other direction too. Each frame is decoded
// and written out again, a publish after passing through rewrite (when
// set); a frame the rewrite leaves alone goes out byte for byte. Each
// direction reads through its own pooled buffer.
func forward(dst, src net.Conn, rewrite func(Message) Message) {
	defer dst.Close()
	defer src.Close()
	r := bufio.NewReader(src)
	w := bufio.NewWriter(dst)
	var rb readBuf
	defer rb.release()
	for {
		body, err := rb.read(r)
		if err != nil {
			return
		}
		kind, m, err := decodeBody(body)
		if err != nil {
			return
		}
		if kind == kindPublish && rewrite != nil {
			m = rewrite(m)
		}
		if err := writeFrame(w, kind, m.Topic, m.Payload); err != nil {
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
