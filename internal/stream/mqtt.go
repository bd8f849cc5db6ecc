package stream

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/acyd-lab/shatter/internal/mqtt"
)

// dayEOF is the Day of the end-of-stream sentinel; real frames always carry
// Day >= 0.
const dayEOF = -1

// controlFrame is the JSON payload of a sensor topic's one control frame,
// the end-of-stream sentinel (day -1). Epoch names the publishing attempt,
// so a stale sentinel from a dead attempt can be discarded instead of
// ending the current one.
type controlFrame struct {
	Day   int `json:"day"`
	Epoch int `json:"epoch"`
	// Final, set only on end-of-stream sentinels, is one past the last day
	// the publisher generated. The consumer compares it against the last
	// day it actually delivered: a mismatch means the stream's tail was
	// lost in transit — the one loss no sequence-gap check can see, because
	// nothing follows it.
	Final int `json:"final,omitempty"`
}

// ErrReceiveTimeout is returned when a pipe's NextBlock call outlives its
// ReceiveTimeout without delivering a day or the end of the stream — the
// signal that the publisher died without delivering its end-of-stream
// sentinel, or that the transport stopped making progress.
var ErrReceiveTimeout = errors.New("stream: pipe receive timeout")

// PipeOptions configures a pipe's transport behaviour. The zero value waits
// forever for each frame. A pipe injects no faults of its own: a chaos run
// hands it a source wrapped by NewFaultSource, the same wrapper the direct
// path reads.
type PipeOptions struct {
	// ReceiveTimeout bounds each NextBlock call as a whole, on real time:
	// stale and duplicate frames do not restart it. 0 waits forever.
	// Supervised fleets set it so a lost end-of-stream sentinel or a wedged
	// publisher surfaces as ErrReceiveTimeout instead of a hang.
	ReceiveTimeout time.Duration
	// Epoch tags every published frame with the attempt number. A retry
	// reuses its home's topic, and the broker may still be flushing the
	// previous attempt's tail when the new subscription registers; the
	// consumer discards frames from foreign epochs so a dead attempt can
	// never poison its successor's stream (stale data advancing the dedup
	// cursor, or a stale end-of-stream sentinel ending the new attempt).
	Epoch int
	// Blocks is ignored: a pipe always moves one binary day-block frame per
	// home-day.
	//
	// Deprecated: day blocks are the only framing.
	Blocks bool
}

// Pipe routes a source through an MQTT broker: a pump goroutine publishes
// every day block on the topic as one binary frame, and NextBlock
// re-receives them from a subscription on the same connection — the wiring
// a real deployment has between in-home sensor nodes and the supervisory
// service. Backpressure is per home: the subscription buffer is bounded and
// TCP flow control stalls the pump when the consumer lags. Duplicate and
// stale frames on the bus (retransmissions, chaos-injected duplicates) are
// absorbed by day tracking in NextBlock, so the consumer sees each day at
// most once, in order. The connection never resumes: when it is lost (a
// broker restart) the subscription closes and NextBlock fails at once
// instead of waiting for frames the restarted broker dropped.
type Pipe struct {
	client *mqtt.Client
	ch     <-chan mqtt.Message

	recvTimeout time.Duration
	timer       *time.Timer
	// stalled is set when a NextBlock call timed out. Only the pipe's one
	// consumer calls NextBlock and Close, never both at once, so it needs
	// no lock.
	stalled bool
	epoch   int   // attempt tag; frames from other epochs are discarded
	last    int   // highest delivered day; -1 before any
	frames  int64 // binary day frames NextBlock took off the bus

	mu      sync.Mutex
	pumpErr error

	wg sync.WaitGroup
}

// OpenPipeOptions dials the broker, subscribes to topic, and starts
// pumping src onto it over the same connection. The broker processes one
// connection's frames in order, so the subscription is registered before
// the first frame the pump publishes. The returned Pipe is the
// transport-side Source; callers must Close it. Closing the pipe does not
// close src itself.
func OpenPipeOptions(broker, topic string, src Source, opts PipeOptions) (*Pipe, error) {
	client, err := mqtt.Dial(broker)
	if err != nil {
		return nil, fmt.Errorf("stream: pipe dial: %w", err)
	}
	ch, err := client.Subscribe(topic)
	if err != nil {
		client.Close()
		return nil, fmt.Errorf("stream: pipe subscribe: %w", err)
	}
	p := &Pipe{client: client, ch: ch, recvTimeout: opts.ReceiveTimeout, epoch: opts.Epoch, last: -1}
	p.wg.Add(1)
	go p.pumpBlocks(topic, src)
	return p, nil
}

// pumpBlockPool and pumpFramePool hold the pumps' scratch between pipes:
// the day block a pump's source fills and the buffer its frames are encoded
// into.
var (
	pumpBlockPool = sync.Pool{New: func() any { return new(DayBlock) }}
	pumpFramePool = sync.Pool{New: func() any { return new([]byte) }}
)

// pumpBlocks publishes src's day-blocks as binary wire frames — one raw
// publish per home-day. Its day block and encode buffer come from pools and
// go back when it exits, and the bus pools its own buffers, so once the
// pools are warm the day path (encode, frame, fan-out, delivery) is
// allocation-free from a pipe's first frame on. The
// end-of-stream sentinel is a JSON publish (Publish), sent after a source
// error too (the consumer then returns that error); it carries the
// stream's final day so the consumer can detect a lost tail.
func (p *Pipe) pumpBlocks(topic string, src Source) {
	defer p.wg.Done()
	blk := pumpBlockPool.Get().(*DayBlock)
	buf := pumpFramePool.Get().(*[]byte)
	defer func() {
		pumpBlockPool.Put(blk)
		pumpFramePool.Put(buf)
	}()
	final := 0
	for {
		err := src.NextBlock(blk)
		if err == io.EOF {
			break
		}
		if err != nil {
			p.setErr(err)
			break
		}
		final = blk.Day + 1
		*buf, err = AppendBlockFrame((*buf)[:0], blk, p.epoch)
		if err != nil {
			p.setErr(fmt.Errorf("stream: pipe encode day %d: %w", blk.Day, err))
			break
		}
		if err := p.client.PublishRaw(topic, *buf); err != nil {
			p.publishFailed(err)
			return
		}
	}
	p.client.Publish(topic, controlFrame{Day: dayEOF, Epoch: p.epoch, Final: final})
}

// publishFailed records a dead publisher and closes the connection — the
// sentinel cannot be delivered, so the closed subscription channel is what
// unblocks NextBlock, which then surfaces the pump error.
func (p *Pipe) publishFailed(err error) {
	p.setErr(fmt.Errorf("stream: pipe publish: %w", err))
	p.client.Close()
}

func (p *Pipe) setErr(err error) {
	p.mu.Lock()
	if p.pumpErr == nil {
		p.pumpErr = err
	}
	p.mu.Unlock()
}

func (p *Pipe) err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pumpErr
}

// NextBlock implements Source: day-block frames decode into dst, and any
// other payload is a JSON end-of-stream sentinel, this attempt's or a
// foreign epoch's straggler. The pump's sentinel yields io.EOF (or the pump's error).
// Duplicate and stale frames are skipped so each day is delivered at most
// once. A lost connection fails the call at once. With a ReceiveTimeout the
// whole call is bounded: it returns ErrReceiveTimeout and marks the pipe
// stalled once the deadline passes.
func (p *Pipe) NextBlock(dst *DayBlock) error {
	if p.recvTimeout <= 0 {
		return p.next(dst, nil)
	}
	if p.timer == nil {
		p.timer = time.NewTimer(p.recvTimeout)
	} else {
		p.timer.Reset(p.recvTimeout)
	}
	err := p.next(dst, p.timer.C)
	p.timer.Stop()
	return err
}

// next receives until it can deliver a day or end the stream, or until
// expired fires (nil: never).
func (p *Pipe) next(dst *DayBlock, expired <-chan time.Time) error {
	for {
		var m mqtt.Message
		var ok bool
		select {
		case m, ok = <-p.ch:
		case <-expired:
			p.stalled = true
			return fmt.Errorf("%w after %s", ErrReceiveTimeout, p.recvTimeout)
		}
		if !ok {
			if err := p.err(); err != nil {
				return err
			}
			return fmt.Errorf("stream: pipe connection lost: %w", io.ErrUnexpectedEOF)
		}
		if IsBlockFrame(m.Payload) {
			p.frames++
			epoch, err := DecodeBlockFrame(dst, m.Payload)
			// The frame is decoded (or rejected), so its payload goes back to
			// the bus's pool, whether the day is delivered or discarded below.
			m.Release()
			if err != nil {
				return fmt.Errorf("stream: pipe decode: %w", err)
			}
			if epoch != p.epoch {
				continue // a dead attempt's tail still flushing out
			}
			if dst.Day <= p.last {
				continue // duplicate or stale retransmission
			}
			p.last = dst.Day
			return nil
		}
		var c controlFrame
		err := json.Unmarshal(m.Payload, &c)
		// Every delivery is a pooled copy: a sentinel left unreleased would
		// hold a frame-sized buffer for its few bytes.
		m.Release()
		if err != nil {
			return fmt.Errorf("stream: pipe decode: %w", err)
		}
		switch {
		case c.Epoch != p.epoch:
			// A dead attempt's sentinel still flushing out of the broker; it
			// must not end this stream.
			continue
		case c.Day == dayEOF:
			if err := p.err(); err != nil {
				return err
			}
			if c.Final > 0 && p.last != c.Final-1 {
				// The publisher generated day frames past the last one we
				// delivered: the stream's tail was lost in transit.
				return fmt.Errorf("stream: pipe stream ended short of day %d (last delivered %d): frames lost", c.Final-1, p.last)
			}
			return io.EOF
		}
		return fmt.Errorf("stream: unexpected control frame for day %d", c.Day)
	}
}

// Frames reports how many binary day frames NextBlock has taken off the
// subscription, duplicates and foreign-epoch stragglers included: the
// pipe's share of the fleet's bus traffic. Read it from the goroutine that
// calls NextBlock.
func (p *Pipe) Frames() int64 { return p.frames }

// Close tears the transport down and waits for the pump. A pipe whose
// NextBlock timed out skips the wait: its pump may be wedged inside the
// source, and waiting for it would turn a stalled transport into a stalled
// caller. Closing the connection makes such a pump's next Publish fail, so
// it winds down whenever the source returns.
func (p *Pipe) Close() error {
	p.client.Close()
	if !p.stalled {
		p.wg.Wait()
	}
	return nil
}
