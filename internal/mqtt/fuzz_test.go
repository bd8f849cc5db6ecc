package mqtt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// readFrame reads and decodes one frame through the read loops' readBuf. It
// never releases the buffer, so the payload aliasing it stays valid and is
// collected with the message.
func readFrame(r io.Reader) (byte, Message, error) {
	var rb readBuf
	body, err := rb.read(r)
	if err != nil {
		return 0, Message{}, err
	}
	return decodeBody(body)
}

// frameBytes encodes one frame.
func frameBytes(t testing.TB, kind byte, topic string, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, kind, topic, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadFrame hammers the wire decoder with truncated, oversized, and
// malformed frames. The decoder must never panic or over-allocate: every
// input either yields a frame or a clean error, and re-encoding an accepted
// frame must reproduce its bytes exactly, because a proxy forwards a frame
// by decoding and re-encoding it.
func FuzzReadFrame(f *testing.F) {
	// Seed: a publish with a JSON payload.
	f.Add(frameBytes(f, kindPublish, "home/1/sensor", []byte(`{"x":1}`)))
	// Seed: truncated header.
	f.Add([]byte{0, 0})
	// Seed: header promising more bytes than follow.
	f.Add([]byte{0, 0, 0, 10, kindPublish, 0, 1, 'a'})
	// Seed: oversized length announcement.
	hdr := make([]byte, 4)
	binary.BigEndian.PutUint32(hdr, maxFrame+1)
	f.Add(hdr)
	// Seed: a subscribe to a wildcard filter.
	f.Add(frameBytes(f, kindSubscribe, "home/+/sensor", nil))
	// Seed: a publish with an opaque binary payload.
	f.Add(frameBytes(f, kindPublish, "home/1/sensor", []byte{0xDE, 0xAD, 0xBE}))
	// Seed: a topic length overrunning the body.
	f.Add([]byte{0, 0, 0, 4, kindPublish, 0xFF, 0xFF, 'a'})
	// Seed: a subscribe carrying a payload.
	f.Add([]byte{0, 0, 0, 5, kindSubscribe, 0, 1, 't', 'x'})

	f.Fuzz(func(t *testing.T, data []byte) {
		kind, m, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, kind, m.Topic, m.Payload); err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		if buf.Len() > len(data) || !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
			t.Fatalf("re-encoding changed the frame:\n%q\n%q", buf.Bytes(), data)
		}
	})
}

// TestReadFrameErrors pins the decoder's behaviour on the malformed-frame
// classes the fuzz target explores.
func TestReadFrameErrors(t *testing.T) {
	// Truncated header.
	if _, _, err := readFrame(bytes.NewReader([]byte{1, 2})); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated header: got %v", err)
	}
	// Empty input.
	if _, _, err := readFrame(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Errorf("empty input: got %v", err)
	}
	// Oversized announcement must be rejected before allocation.
	hdr := make([]byte, 4)
	binary.BigEndian.PutUint32(hdr, maxFrame+1)
	if _, _, err := readFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrFrameTooBig) {
		t.Errorf("oversized frame: got %v", err)
	}
	// Truncated body.
	if _, _, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 9, 'h', 'i'})); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated body: got %v", err)
	}
	// Malformed bodies: too short for a kind and topic length, an unknown
	// kind (a JSON envelope among them), a topic past the body end, and a
	// subscribe with a payload.
	for _, body := range [][]byte{
		{kindPublish, 0},
		{'{', 0, 0},
		{kindPublish, 0, 2, 'a'},
		{kindSubscribe, 0, 1, 't', 'x'},
	} {
		frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
		if _, _, err := readFrame(bytes.NewReader(append(frame, body...))); err == nil {
			t.Errorf("malformed body %q accepted", body)
		}
	}
}
