package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/home"
)

// The binary day-block frame is the fleet bus's hot-path encoding: one
// fixed-layout frame per home-day instead of aras.SlotsPerDay JSON slot
// envelopes. Its integrity scheme is the checkpoint codec's — an 8-byte
// versioned magic, a big-endian u32 payload length, and a CRC-32 (IEEE) of
// the payload — so both persisted and in-flight state share one corruption
// model: bad frames error cleanly, never decode garbage.
//
// Payload layout (all integers big-endian):
//
//	u32 epoch      publishing attempt tag (stale-epoch discard)
//	u32 day        day index the block covers
//	u16 homeLen    then homeLen bytes of home ID
//	u16 occupants
//	u16 appliances
//	u16 slots      must equal aras.SlotsPerDay
//	TempF          slots x u64 (IEEE-754 bits)
//	CO2PPM         slots x u64
//	per occupant   TrueZone, TrueAct, RepZone, RepAct: slots x i16 each; the
//	               IDs are int8 in memory, so the decoder rejects any value
//	               outside int8
//	per appliance  TrueAppliance, RepAppliance: packed bitset, (slots+7)/8 bytes
//	               each, LSB first: slot t is bit t%8 (value 1<<(t%8)) of byte t/8;
//	               the block holds its columns in this layout, so they are
//	               copied as they are
const blockFrameVersion = 1

// blockMagic prefixes every binary day-block frame; its first byte also
// discriminates block frames from JSON control traffic on a shared topic.
var blockMagic = [8]byte{'S', 'H', 'B', 'L', 'O', 'K', '0' + blockFrameVersion, '\n'}

// maxBlockFrame bounds a frame so a corrupted length header cannot force a
// huge allocation (and matches the transport's own frame cap).
const maxBlockFrame = 1 << 20

// maxBlockCols bounds the occupant/appliance column counts a decoder will
// accept; real houses have a handful of each.
const maxBlockCols = 1 << 12

// ErrBadBlockFrame is returned when a binary day-block frame fails
// structural validation: bad magic, truncation, checksum mismatch, or
// out-of-range fields. Corrupt frames must error cleanly, never panic.
var ErrBadBlockFrame = errors.New("stream: corrupt day-block frame")

// IsBlockFrame reports whether a payload opens with the day-block magic —
// the cheap classification receivers use to tell block frames from JSON
// control frames.
func IsBlockFrame(p []byte) bool {
	return len(p) >= len(blockMagic) && string(p[:len(blockMagic)]) == string(blockMagic[:])
}

// AppendBlockFrame appends the binary wire encoding of the block (tagged
// with the publishing epoch) to dst and returns the extended slice. Reusing
// dst's storage across calls keeps a steady-state publisher allocation-free.
func AppendBlockFrame(dst []byte, b *DayBlock, epoch int) ([]byte, error) {
	if err := b.shapeErr(len(b.TrueZone), len(b.TrueAppliance)); err != nil {
		return dst, err
	}
	occ, appl := len(b.TrueZone), len(b.TrueAppliance)
	if occ > maxBlockCols || appl > maxBlockCols {
		return dst, fmt.Errorf("stream: block with %d/%d columns exceeds frame limit", occ, appl)
	}
	if epoch < 0 || epoch > math.MaxInt32 {
		return dst, fmt.Errorf("stream: block epoch %d out of frame range", epoch)
	}
	if b.Day < 0 || b.Day > math.MaxInt32 {
		return dst, fmt.Errorf("stream: block day %d out of frame range", b.Day)
	}
	if len(b.Home) > math.MaxUint16 {
		return dst, fmt.Errorf("stream: home ID %d bytes exceeds frame limit", len(b.Home))
	}
	payloadLen := blockPayloadLen(len(b.Home), occ, appl)
	if payloadLen > maxBlockFrame {
		return dst, fmt.Errorf("stream: block payload %d bytes exceeds limit", payloadLen)
	}

	base := len(dst)
	dst = slices.Grow(dst, 16+payloadLen)
	dst = append(dst, blockMagic[:]...)
	dst = appendU32(dst, uint32(payloadLen))
	dst = appendU32(dst, 0) // CRC backfilled below
	body := len(dst)

	dst = appendU32(dst, uint32(epoch))
	dst = appendU32(dst, uint32(b.Day))
	dst = appendU16(dst, uint16(len(b.Home)))
	dst = append(dst, b.Home...)
	dst = appendU16(dst, uint16(occ))
	dst = appendU16(dst, uint16(appl))
	dst = appendU16(dst, uint16(aras.SlotsPerDay))
	for _, v := range b.TempF {
		dst = appendU64(dst, math.Float64bits(v))
	}
	for _, v := range b.CO2PPM {
		dst = appendU64(dst, math.Float64bits(v))
	}
	for o := 0; o < occ; o++ {
		dst = appendIDCol(dst, b.TrueZone[o])
		dst = appendIDCol(dst, b.TrueAct[o])
		dst = appendIDCol(dst, b.RepZone[o])
		dst = appendIDCol(dst, b.RepAct[o])
	}
	for a := 0; a < appl; a++ {
		dst = append(dst, b.TrueAppliance[a]...)
		dst = append(dst, b.RepAppliance[a]...)
	}
	if got := len(dst) - body; got != payloadLen {
		return dst[:base], fmt.Errorf("stream: block payload sized %d, computed %d", got, payloadLen)
	}
	binary.BigEndian.PutUint32(dst[base+12:base+16], crc32.ChecksumIEEE(dst[body:]))
	return dst, nil
}

// DecodeBlockFrame decodes a binary day-block frame into dst (reusing its
// column storage) and returns the frame's publishing epoch. Every
// structural defect — bad magic, truncation, trailing bytes, checksum
// mismatch, out-of-range fields, a zone or activity ID outside int8 —
// errors with ErrBadBlockFrame; the decoder never panics and never returns
// a half-filled block as valid.
func DecodeBlockFrame(dst *DayBlock, data []byte) (int, error) {
	if len(data) < 16 {
		return 0, fmt.Errorf("%w: %d-byte frame", ErrBadBlockFrame, len(data))
	}
	if !IsBlockFrame(data) {
		return 0, fmt.Errorf("%w: bad magic %q", ErrBadBlockFrame, data[:8])
	}
	n := binary.BigEndian.Uint32(data[8:12])
	if n > maxBlockFrame {
		return 0, fmt.Errorf("%w: payload length %d exceeds limit", ErrBadBlockFrame, n)
	}
	if int(n) != len(data)-16 {
		return 0, fmt.Errorf("%w: payload length %d in a %d-byte frame", ErrBadBlockFrame, n, len(data))
	}
	payload := data[16:]
	if sum := crc32.ChecksumIEEE(payload); sum != binary.BigEndian.Uint32(data[12:16]) {
		return 0, fmt.Errorf("%w: checksum mismatch", ErrBadBlockFrame)
	}

	cur := reader{buf: payload}
	epoch := int(cur.u32())
	day := int(cur.u32())
	homeLen := int(cur.u16())
	homeID := cur.bytes(homeLen)
	occ := int(cur.u16())
	appl := int(cur.u16())
	slots := int(cur.u16())
	if cur.bad {
		return 0, fmt.Errorf("%w: truncated header", ErrBadBlockFrame)
	}
	if slots != aras.SlotsPerDay {
		return 0, fmt.Errorf("%w: %d slots per day, want %d", ErrBadBlockFrame, slots, aras.SlotsPerDay)
	}
	if occ > maxBlockCols || appl > maxBlockCols {
		return 0, fmt.Errorf("%w: %d/%d columns exceed limit", ErrBadBlockFrame, occ, appl)
	}
	if want := blockPayloadLen(homeLen, occ, appl); want != len(payload) {
		return 0, fmt.Errorf("%w: %d-byte payload for shape needing %d", ErrBadBlockFrame, len(payload), want)
	}

	dst.ensure(occ, appl)
	dst.Home = string(homeID)
	dst.Day = day
	for t := range dst.TempF {
		dst.TempF[t] = math.Float64frombits(cur.u64())
	}
	for t := range dst.CO2PPM {
		dst.CO2PPM[t] = math.Float64frombits(cur.u64())
	}
	for o := 0; o < occ; o++ {
		idCol(&cur, dst.TrueZone[o])
		idCol(&cur, dst.TrueAct[o])
		idCol(&cur, dst.RepZone[o])
		idCol(&cur, dst.RepAct[o])
	}
	for a := 0; a < appl; a++ {
		copy(dst.TrueAppliance[a], cur.take(aras.ColumnBytes))
		copy(dst.RepAppliance[a], cur.take(aras.ColumnBytes))
	}
	if cur.bad || len(cur.buf) != cur.off {
		return 0, fmt.Errorf("%w: truncated or trailing column data", ErrBadBlockFrame)
	}
	if cur.wideID {
		return 0, fmt.Errorf("%w: zone or activity ID outside int8", ErrBadBlockFrame)
	}
	return epoch, nil
}

// blockPayloadLen computes the exact payload size for a block shape.
func blockPayloadLen(homeLen, occ, appl int) int {
	const header = 4 + 4 + 2 + 2 + 2 + 2 // epoch, day, homeLen, occ, appl, slots
	weather := 2 * aras.SlotsPerDay * 8
	occCols := occ * 4 * aras.SlotsPerDay * 2
	applCols := appl * 2 * aras.ColumnBytes
	return header + homeLen + weather + occCols + applCols
}

func appendU16(dst []byte, v uint16) []byte {
	return append(dst, byte(v>>8), byte(v))
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendU64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// appendIDCol writes a zone or activity column as i16s.
func appendIDCol[ID home.ZoneID | home.ActivityID](dst []byte, col []ID) []byte {
	for _, v := range col {
		dst = appendU16(dst, uint16(int16(v)))
	}
	return dst
}

// reader is a bounds-checked big-endian cursor; any overrun latches bad,
// and an i16 ID outside int8 latches wideID, instead of panicking, so the
// decoder validates once at the end.
type reader struct {
	buf    []byte
	off    int
	bad    bool
	wideID bool
}

func (r *reader) take(n int) []byte {
	if r.bad || n < 0 || len(r.buf)-r.off < n {
		r.bad = true
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *reader) bytes(n int) []byte { return r.take(n) }

// idCol reads an appendIDCol column.
func idCol[ID home.ZoneID | home.ActivityID](r *reader, col []ID) {
	b := r.take(2 * len(col))
	if b == nil {
		return
	}
	for t := range col {
		v := int16(binary.BigEndian.Uint16(b[2*t:]))
		if int16(int8(v)) != v {
			r.wideID = true
		}
		col[t] = ID(v)
	}
}
