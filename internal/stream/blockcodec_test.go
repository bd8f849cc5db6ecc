package stream

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"io"
	"reflect"
	"testing"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/home"
)

// codecBlocks materializes every day-block of a generated world — realistic
// column content (weather floats, zone/activity IDs, appliance bitsets) for
// the round-trip cases.
func codecBlocks(t testing.TB, house string, days int) []*DayBlock {
	t.Helper()
	h := home.MustHouse(house)
	gen, err := aras.NewGenerator(h, aras.GeneratorConfig{Days: days, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	src := NewGeneratorSource(house, gen)
	var blocks []*DayBlock
	for {
		blk := new(DayBlock)
		if err := src.NextBlock(blk); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, blk)
	}
	if len(blocks) != days {
		t.Fatalf("generated %d blocks, want %d", len(blocks), days)
	}
	return blocks
}

// TestBlockFrameRoundTrip pins encode → decode as the identity on realistic
// blocks from both paper houses, including decoder storage reuse across
// differently shaped homes.
func TestBlockFrameRoundTrip(t *testing.T) {
	var dst DayBlock // reused across every decode, shapes A and B interleaved
	var buf []byte
	for _, house := range []string{"A", "B"} {
		for _, blk := range codecBlocks(t, house, 3) {
			var err error
			buf, err = AppendBlockFrame(buf[:0], blk, 7)
			if err != nil {
				t.Fatal(err)
			}
			if !IsBlockFrame(buf) {
				t.Fatal("encoded frame not classified as block frame")
			}
			epoch, err := DecodeBlockFrame(&dst, buf)
			if err != nil {
				t.Fatal(err)
			}
			if epoch != 7 {
				t.Fatalf("epoch %d, want 7", epoch)
			}
			if !reflect.DeepEqual(&dst, blk) {
				t.Fatalf("house %s day %d: decoded block differs from original", house, blk.Day)
			}
		}
	}
}

// TestBlockFrameGolden pins the frame's bytes, not just the round trip: an
// encoder and decoder that changed the layout together (the bitset bit
// order, say) would still round-trip. The digests are SHA-256 over the
// concatenated frames of days 0-2 (seed 99, epoch 7) of each paper house.
func TestBlockFrameGolden(t *testing.T) {
	for _, tc := range []struct{ house, sha256 string }{
		{"A", goldenFrameA},
		{"B", goldenFrameB},
	} {
		h := sha256.New()
		var buf []byte
		for _, blk := range codecBlocks(t, tc.house, 3) {
			var err error
			if buf, err = AppendBlockFrame(buf[:0], blk, 7); err != nil {
				t.Fatal(err)
			}
			h.Write(buf)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.sha256 {
			t.Errorf("house %s frames sha256 %s, want %s", tc.house, got, tc.sha256)
		}
	}
}

const (
	goldenFrameA = "24713626822cc459f62f1c6a677881e1c281bacc3be47dc434df9a7e10475895"
	goldenFrameB = "79b9b5a5e53641c965a3ccf21fbda641dccf90090fe142fe02f434c09fbf50ea"
)

// TestBlockFrameBitOrder pins the appliance bitset layout on a hand-built
// block: slot t of a column is bit t%8 (value 1<<(t%8)) of byte t/8 of its
// (slots+7)/8-byte run, LSB first.
func TestBlockFrameBitOrder(t *testing.T) {
	var blk DayBlock
	blk.ensure(1, 2)
	blk.Home = "bits"
	on := map[int][]int{
		0: {0, 1, 7, 8, 9, 100, 1432, 1439}, // TrueAppliance[0]
		1: {3, 15, 16, 1000},                // RepAppliance[0]
		2: {1438},                           // TrueAppliance[1]
	}
	cols := [][]byte{blk.TrueAppliance[0], blk.RepAppliance[0], blk.TrueAppliance[1], blk.RepAppliance[1]}
	for c, slots := range on {
		for _, slot := range slots {
			aras.SetBit(cols[c], slot, true)
		}
	}
	frame, err := AppendBlockFrame(nil, &blk, 1)
	if err != nil {
		t.Fatal(err)
	}
	const colBytes = (aras.SlotsPerDay + 7) / 8
	bits := frame[len(frame)-len(cols)*colBytes:] // appliance columns close the frame
	for c := range cols {
		want := make([]byte, colBytes)
		for _, slot := range on[c] {
			want[slot/8] |= 1 << (slot % 8)
		}
		if got := bits[c*colBytes : (c+1)*colBytes]; !bytes.Equal(got, want) {
			t.Errorf("column %d bytes % x, want % x", c, got, want)
		}
	}
	// Slots 0, 1 and 7 share byte 0; 8 and 9 are bits 0 and 1 of byte 1;
	// 1432 and 1439 are the ends of the last byte.
	if bits[0] != 0x83 || bits[1] != 0x03 || bits[colBytes-1] != 0x81 {
		t.Errorf("TrueAppliance[0] bytes 0, 1, %d = %#02x %#02x %#02x, want 0x83 0x03 0x81",
			colBytes-1, bits[0], bits[1], bits[colBytes-1])
	}
	var back DayBlock
	if _, err := DecodeBlockFrame(&back, frame); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, &blk) {
		t.Fatal("hand-built block does not round-trip")
	}
}

// TestBlockFrameCorruption walks every single-byte corruption and every
// truncation length of a valid frame through the decoder: each must error
// (never panic, never decode silently wrong data). Flipping any payload or
// header byte breaks magic, length, or CRC; the frame has no slack bytes.
func TestBlockFrameCorruption(t *testing.T) {
	blk := codecBlocks(t, "A", 1)[0]
	frame, err := AppendBlockFrame(nil, blk, 3)
	if err != nil {
		t.Fatal(err)
	}
	var dst DayBlock
	for i := 0; i < len(frame); i++ {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x40
		if _, err := DecodeBlockFrame(&dst, mut); !errors.Is(err, ErrBadBlockFrame) {
			t.Fatalf("flip at byte %d: got %v, want ErrBadBlockFrame", i, err)
		}
	}
	for n := 0; n < len(frame); n++ {
		if _, err := DecodeBlockFrame(&dst, frame[:n]); !errors.Is(err, ErrBadBlockFrame) {
			t.Fatalf("truncation to %d bytes: got %v, want ErrBadBlockFrame", n, err)
		}
	}
	// Trailing garbage after a valid frame must also be rejected.
	if _, err := DecodeBlockFrame(&dst, append(append([]byte(nil), frame...), 0)); !errors.Is(err, ErrBadBlockFrame) {
		t.Fatalf("trailing byte: got %v, want ErrBadBlockFrame", err)
	}
}

// TestBlockFrameEncodeRejects pins the encoder's own validation: malformed
// shapes and out-of-range fields must refuse to produce a frame.
func TestBlockFrameEncodeRejects(t *testing.T) {
	blk := codecBlocks(t, "A", 1)[0]
	if _, err := AppendBlockFrame(nil, blk, -1); err == nil {
		t.Error("negative epoch accepted")
	}
	blk.Day = -1
	if _, err := AppendBlockFrame(nil, blk, 0); err == nil {
		t.Error("negative day accepted")
	}
	blk.Day = 0
	short := &DayBlock{Home: "A"}
	if _, err := AppendBlockFrame(nil, short, 0); err == nil {
		t.Error("short-column block accepted")
	}
}

// wideIDFrame returns a valid house-A frame whose occupant-0 column col
// (0 TrueZone, 1 TrueAct, 2 RepZone, 3 RepAct) holds the i16 v at slot 5,
// under a recomputed CRC: a frame no encoder of byte-wide IDs produces.
func wideIDFrame(t testing.TB, col int, v int16) []byte {
	t.Helper()
	blk := codecBlocks(t, "A", 1)[0]
	frame, err := AppendBlockFrame(nil, blk, 0)
	if err != nil {
		t.Fatal(err)
	}
	const header = 16 + 4 + 4 + 2 // frame header, epoch, day, homeLen
	off := header + len(blk.Home) + 3*2 + 2*aras.SlotsPerDay*8 + (col*aras.SlotsPerDay+5)*2
	binary.BigEndian.PutUint16(frame[off:], uint16(v))
	binary.BigEndian.PutUint32(frame[12:16], crc32.ChecksumIEEE(frame[16:]))
	return frame
}

// TestBlockFrameDecodeRejectsWideID holds the decoder to the byte-wide ID
// columns: an i16 zone or activity outside int8 under a valid CRC fails
// with ErrBadBlockFrame instead of wrapping, and the int8 extremes decode.
func TestBlockFrameDecodeRejectsWideID(t *testing.T) {
	var dst DayBlock
	for _, c := range []struct {
		col int
		v   int16
	}{{0, 300}, {1, 128}, {2, -129}, {3, -200}} {
		if _, err := DecodeBlockFrame(&dst, wideIDFrame(t, c.col, c.v)); !errors.Is(err, ErrBadBlockFrame) {
			t.Errorf("column %d ID %d: got %v, want ErrBadBlockFrame", c.col, c.v, err)
		}
	}
	if _, err := DecodeBlockFrame(&dst, wideIDFrame(t, 0, 127)); err != nil || dst.TrueZone[0][5] != 127 {
		t.Errorf("zone 127: got %v, zone %d", err, dst.TrueZone[0][5])
	}
	if _, err := DecodeBlockFrame(&dst, wideIDFrame(t, 1, -128)); err != nil || dst.TrueAct[0][5] != -128 {
		t.Errorf("activity -128: got %v, activity %d", err, dst.TrueAct[0][5])
	}
}

// FuzzDecodeBlockFrame hammers the block decoder with arbitrary bytes: every
// input either decodes to a block that re-encodes byte-identically or errors
// cleanly — no panics, no lossy acceptance.
func FuzzDecodeBlockFrame(f *testing.F) {
	h := home.MustHouse("A")
	gen, err := aras.NewGenerator(h, aras.GeneratorConfig{Days: 1, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	src := NewGeneratorSource("A", gen)
	var blk DayBlock
	if err := src.NextBlock(&blk); err != nil {
		f.Fatal(err)
	}
	valid, err := AppendBlockFrame(nil, &blk, 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:16])
	f.Add(valid[:len(valid)-1])
	f.Add([]byte("SHBLOK1\n"))
	f.Add([]byte{})
	f.Add(wideIDFrame(f, 0, 300))

	f.Fuzz(func(t *testing.T, data []byte) {
		var dst DayBlock
		epoch, err := DecodeBlockFrame(&dst, data)
		if err != nil {
			if !errors.Is(err, ErrBadBlockFrame) {
				t.Fatalf("decode error outside ErrBadBlockFrame: %v", err)
			}
			return
		}
		re, err := AppendBlockFrame(nil, &dst, epoch)
		if err != nil {
			t.Fatalf("re-encode of accepted block failed: %v", err)
		}
		if string(re) != string(data) {
			t.Fatalf("accepted frame does not re-encode identically (%d vs %d bytes)", len(re), len(data))
		}
	})
}

// BenchmarkBlockFrame times the day-block codec on one house-A frame (seed
// 99, day 0): encode appends into a reused buffer, decode fills a reused
// block.
func BenchmarkBlockFrame(b *testing.B) {
	blk := codecBlocks(b, "A", 1)[0]
	frame, err := AppendBlockFrame(nil, blk, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		buf := make([]byte, 0, len(frame))
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if buf, err = AppendBlockFrame(buf[:0], blk, 7); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		var dst DayBlock
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if _, err := DecodeBlockFrame(&dst, frame); err != nil {
				b.Fatal(err)
			}
		}
	})
}
