package fleetd

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/hvac"
	"github.com/acyd-lab/shatter/internal/stream"
)

// sampleCheckpoint is a structurally valid checkpoint of home after days.
func sampleCheckpoint(home string, days int) *stream.Checkpoint {
	cost := make([]float64, days)
	for d := range cost {
		cost[d] = 1.25 + float64(d)
	}
	return &stream.Checkpoint{
		Version: 2,
		Home:    home,
		Days:    days,
		Sim: hvac.SimState{Day: days, ZoneCO2: []float64{412.5, 630.25},
			Result: hvac.Result{DailyCostUSD: cost, DailyKWh: cost, TotalCostUSD: float64(days)}},
		Result: stream.HomeResult{ID: home, Days: days, Slots: int64(days) * aras.SlotsPerDay, SensorEvents: 42},
	}
}

// checkpointRecord journals sampleCheckpoint(home, days).
func checkpointRecord(home string, days int) ManifestRecord {
	return ManifestRecord{Op: manifestOpCheckpoint, Home: home, Checkpoint: sampleCheckpoint(home, days)}
}

// sampleManifest is a journal exercising every record op, with checkpoints
// that a newer checkpoint (h1), a done record (h0, journaled after it) and
// a remove record (h3, journaled before it) supersede.
func sampleManifest() []ManifestRecord {
	return []ManifestRecord{
		{Op: manifestOpAdd, Add: &AddRequest{Synth: 4, Seed: 7, Days: 2, Defend: true}},
		{Op: manifestOpPause, Home: "h1"},
		checkpointRecord("h1", 1),
		{Op: manifestOpResume, Home: "h1"},
		{Op: manifestOpPause, Home: "h2"},
		checkpointRecord("h0", 1),
		{Op: manifestOpRemove, Home: "h3"},
		{Op: manifestOpDone, Home: "h0",
			Outcome: &stream.HomeOutcome{ID: "h0", Status: stream.OutcomeCompleted, Attempts: 1, Days: 2},
			Result:  &stream.HomeResult{ID: "h0", Days: 2, Slots: 2880}},
		{Op: manifestOpDone, Home: "h4",
			Outcome: &stream.HomeOutcome{ID: "h4", Status: stream.OutcomeQuarantined, Attempts: 3, Err: "flaky"}},
		checkpointRecord("h1", 2),
		checkpointRecord("h2", 1),
		checkpointRecord("h3", 1),
	}
}

func encodeManifest(t *testing.T, recs []ManifestRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i := range recs {
		if err := WriteManifestRecord(&buf, &recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestManifestRoundTrip(t *testing.T) {
	recs := sampleManifest()
	got, err := ReadManifest(bytes.NewReader(encodeManifest(t, recs)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip diverges:\n%+v\nvs\n%+v", got, recs)
	}
}

func TestWriteManifestRecordRejectsInvalid(t *testing.T) {
	bad := []ManifestRecord{
		{Op: "unknown"},
		{Op: manifestOpAdd},             // missing spec
		{Op: manifestOpPause},           // missing home
		{Op: manifestOpDone, Home: "x"}, // missing outcome
		{Op: manifestOpDone, Home: "x", // outcome for a different home
			Outcome: &stream.HomeOutcome{ID: "y"}},
		{Op: manifestOpDone, Home: "x", // result for a different home
			Outcome: &stream.HomeOutcome{ID: "x"},
			Result:  &stream.HomeResult{ID: "y"}},
		{Op: manifestOpCheckpoint},            // missing home
		{Op: manifestOpCheckpoint, Home: "x"}, // missing checkpoint
		{Op: manifestOpCheckpoint, Home: "x", // checkpoint of a different home
			Checkpoint: sampleCheckpoint("y", 1)},
	}
	for i := range bad {
		if err := WriteManifestRecord(io.Discard, &bad[i]); !errors.Is(err, ErrBadManifest) {
			t.Fatalf("record %d: want ErrBadManifest, got %v", i, err)
		}
	}
}

// TestReadManifestEveryByteCorruption flips every byte of a valid journal in
// turn: each flip must surface as a clean error — magic, length, and CRC
// cover the entire frame, so no single-byte corruption may decode silently.
func TestReadManifestEveryByteCorruption(t *testing.T) {
	data := encodeManifest(t, sampleManifest())
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xff
		recs, err := ReadManifest(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("flip at byte %d decoded silently: %d records", i, len(recs))
		}
		if !errors.Is(err, ErrBadManifest) {
			t.Fatalf("flip at byte %d: unclassified error %v", i, err)
		}
	}
	// Truncation at every length is an error too — except the clean
	// record-boundary prefixes, which read as a shorter journal.
	boundaries := map[int]bool{len(data): true}
	off := 0
	for _, rec := range sampleManifest() {
		var buf bytes.Buffer
		if err := WriteManifestRecord(&buf, &rec); err != nil {
			t.Fatal(err)
		}
		off += buf.Len()
		boundaries[off] = true
	}
	for n := 0; n < len(data); n++ {
		_, err := ReadManifest(bytes.NewReader(data[:n]))
		if boundaries[n] || n == 0 {
			if err != nil {
				t.Fatalf("clean prefix %d: %v", n, err)
			}
			continue
		}
		if !errors.Is(err, ErrBadManifest) || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncation at %d should wrap ErrBadManifest and ErrUnexpectedEOF, got %v", n, err)
		}
	}
}

// TestCompactManifest: compaction keeps adds, removals and completions,
// the still-effective pauses, and the newest checkpoint of each home no
// done or remove record ended — whichever order those records came in.
func TestCompactManifest(t *testing.T) {
	got := CompactManifest(sampleManifest())
	want := []ManifestRecord{
		sampleManifest()[0],  // add
		sampleManifest()[6],  // remove h3
		sampleManifest()[7],  // done h0
		sampleManifest()[8],  // done h4
		sampleManifest()[4],  // pause h2 still in effect
		sampleManifest()[9],  // h1's newest checkpoint (day 2 beats day 1)
		sampleManifest()[10], // h2's checkpoint: paused homes keep theirs
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("compaction diverges:\n%+v\nvs\n%+v", got, want)
	}
	if again := CompactManifest(got); !reflect.DeepEqual(again, got) {
		t.Fatalf("compaction is not idempotent:\n%+v\nvs\n%+v", again, got)
	}
}

// TestOpenManifestTornTail simulates the journal a kill -9 leaves: valid
// records followed by a half-written frame. OpenManifest must drop the torn
// tail, rewrite the journal clean, and keep appending — whether or not the
// journal also holds records compaction drops.
func TestOpenManifestTornTail(t *testing.T) {
	journals := map[string][]ManifestRecord{
		"superseded": sampleManifest(),
		"compact":    CompactManifest(sampleManifest()),
	}
	for name, recs := range journals {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			data := encodeManifest(t, recs)
			// Append half of one more record — torn mid-payload.
			var extra bytes.Buffer
			tail := ManifestRecord{Op: manifestOpPause, Home: "torn"}
			if err := WriteManifestRecord(&extra, &tail); err != nil {
				t.Fatal(err)
			}
			torn := append(data, extra.Bytes()[:extra.Len()/2]...)
			if err := os.WriteFile(ManifestPath(dir), torn, 0o644); err != nil {
				t.Fatal(err)
			}

			man, replayed, err := OpenManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			want := CompactManifest(recs)
			if !reflect.DeepEqual(replayed, want) {
				t.Fatalf("torn-tail replay diverges:\n%+v\nvs\n%+v", replayed, want)
			}
			// The rewrite left a strictly valid journal on disk.
			onDisk, err := os.ReadFile(ManifestPath(dir))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ReadManifest(bytes.NewReader(onDisk)); err != nil {
				t.Fatalf("journal still dirty after recovery: %v", err)
			}
			// Appends continue past the recovery.
			add := ManifestRecord{Op: manifestOpRemove, Home: "h9"}
			if err := man.Append(add); err != nil {
				t.Fatal(err)
			}
			if err := man.Close(); err != nil {
				t.Fatal(err)
			}
			if err := man.Close(); err != nil {
				t.Fatalf("second close: %v", err)
			}
			_, replayed2, err := OpenManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(replayed2, append(want, add)) {
				t.Fatalf("appended record lost: %+v", replayed2)
			}
		})
	}
}

// TestOpenManifestLocksStateDir: while one manifest is open on a state dir,
// a second OpenManifest on it fails at once with ErrStateDirLocked naming
// the dir, instead of appending to and compacting the same journal; once
// the first closes, the dir opens again.
func TestOpenManifestLocksStateDir(t *testing.T) {
	dir := t.TempDir()
	first, _, err := OpenManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Append(ManifestRecord{Op: manifestOpPause, Home: "h1"}); err != nil {
		t.Fatal(err)
	}
	second, _, err := OpenManifest(dir)
	if !errors.Is(err, ErrStateDirLocked) || !strings.Contains(err.Error(), dir) {
		if second != nil {
			second.Close()
		}
		t.Fatalf("second open: err = %v, want ErrStateDirLocked naming %s", err, dir)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	again, recs, err := OpenManifest(dir)
	if err != nil {
		t.Fatalf("open after close: %v", err)
	}
	defer again.Close()
	if len(recs) != 1 || recs[0].Home != "h1" {
		t.Fatalf("replay after relock: %+v", recs)
	}
}

// TestOpenManifestRejectsCorruption: mid-journal corruption is not crash
// damage and must fail the open, never replay a silent subset.
func TestOpenManifestRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	data := encodeManifest(t, sampleManifest())
	data[20] ^= 0xff // inside the first record's payload
	if err := os.WriteFile(ManifestPath(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenManifest(dir); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("want ErrBadManifest, got %v", err)
	}
}

// FuzzReadManifest hammers the journal decoder with corrupted, truncated,
// and hostile inputs: it must never panic or over-allocate, every rejection
// must classify as ErrBadManifest, and anything accepted must re-encode and
// re-decode to the same records.
func FuzzReadManifest(f *testing.F) {
	var valid bytes.Buffer
	rec := ManifestRecord{Op: manifestOpPause, Home: "fuzz"}
	if err := WriteManifestRecord(&valid, &rec); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(append(append([]byte{}, valid.Bytes()...), valid.Bytes()...))
	f.Add(valid.Bytes()[:9])
	f.Add([]byte("NOTMAGIC\x00\x00\x00\x02{}"))
	f.Add([]byte{'S', 'H', 'M', 'F', 'S', 'T', '1', '\n', 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add(append(append([]byte{}, valid.Bytes()[:16]...), []byte("xxxxxxxx")...))
	var ck bytes.Buffer
	ckRec := checkpointRecord("fuzz", 2)
	if err := WriteManifestRecord(&ck, &ckRec); err != nil {
		f.Fatal(err)
	}
	f.Add(ck.Bytes())
	f.Add(ck.Bytes()[:ck.Len()-5])

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadManifest(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadManifest) {
				t.Fatalf("unclassified decode error: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		for i := range recs {
			if err := WriteManifestRecord(&buf, &recs[i]); err != nil {
				t.Fatalf("re-encode of accepted record failed: %v", err)
			}
		}
		again, err := ReadManifest(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(again) != len(recs) || (len(recs) > 0 && !reflect.DeepEqual(again, recs)) {
			t.Fatalf("decode not stable:\n%+v\nvs\n%+v", again, recs)
		}
	})
}

// TestManifestRewriteCopiesThroughOneBuffer: compaction copies the kept
// frames through one reused buffer. Rewriting a journal of 385 kept records
// (an add and one checkpoint for each of 384 homes, about 240 KB) leaves its
// bytes identical and allocates a few buffers, not a 32 KiB copy buffer per
// record.
func TestManifestRewriteCopiesThroughOneBuffer(t *testing.T) {
	const homes = 384
	dir := t.TempDir()
	recs := []ManifestRecord{{Op: manifestOpAdd, Add: &AddRequest{Synth: homes, Seed: 1, Days: 4}}}
	for i := 0; i < homes; i++ {
		recs = append(recs, checkpointRecord(fmt.Sprintf("h%d", i), 1+i%4))
	}
	data := encodeManifest(t, recs)
	if err := os.WriteFile(ManifestPath(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}
	man, replayed, err := OpenManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer man.Close()
	if len(replayed) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(replayed), len(recs))
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	man.mu.Lock()
	err = man.compactLocked()
	man.mu.Unlock()
	runtime.ReadMemStats(&ms)
	allocated := ms.TotalAlloc - before
	if err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(ManifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, data) {
		t.Fatalf("rewrite changed the journal: %d bytes, want %d", len(onDisk), len(data))
	}
	t.Logf("rewriting %d records (%d bytes) allocated %d B", len(recs), len(data), allocated)
	if allocated > 256<<10 {
		t.Fatalf("rewriting %d records (%d bytes) allocated %d B, want <= 256 KiB", len(recs), len(data), allocated)
	}
}

// TestManifestOnlineCompaction drives Append with thousands of checkpoint
// records for a few homes, concurrently: the journal must stay within
// twice its compacted size plus the floor, and reopening it must return
// the newest checkpoint of every live home and none of a done or removed
// one.
func TestManifestOnlineCompaction(t *testing.T) {
	const homes, rounds = 4, 1000
	dir := t.TempDir()
	man, recs, err := OpenManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	add := ManifestRecord{Op: manifestOpAdd, Add: &AddRequest{Synth: homes, Seed: 1, Days: rounds}}
	if err := man.Append(add); err != nil {
		t.Fatal(err)
	}
	home := func(i int) string { return fmt.Sprintf("h%d", i) }
	// A day-d checkpoint of home i: one fixed-size payload with the day
	// cursor set, so records differ only in their digits.
	ckRec := func(i, day int) ManifestRecord {
		rec := checkpointRecord(home(i), 1)
		rec.Checkpoint.Days = day
		return rec
	}
	// The live set — the add record and one checkpoint per home — is
	// largest in the last round.
	live := len(encodeManifest(t, []ManifestRecord{add}))
	for i := 0; i < homes; i++ {
		live += len(encodeManifest(t, []ManifestRecord{ckRec(i, rounds)}))
	}
	size := func() int64 {
		fi, err := os.Stat(ManifestPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	// One goroutine per home appends its checkpoints, as shard workers do.
	// Append compacts under its lock, so an observer may catch one record
	// of another appender past the limit, never more.
	bound := int64(2*live+compactFloor) + int64(len(encodeManifest(t, []ManifestRecord{ckRec(0, rounds)})))
	var compactions atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < homes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var prev int64
			for day := 1; day <= rounds; day++ {
				if err := man.Append(ckRec(i, day)); err != nil {
					t.Error(err)
					return
				}
				fi, err := os.Stat(ManifestPath(dir))
				if err != nil {
					t.Error(err)
					return
				}
				if n := fi.Size(); n > bound {
					t.Errorf("%s day %d: journal is %d bytes, past twice its compacted size %d plus the floor", home(i), day, n, live)
					return
				} else if n < prev {
					compactions.Add(1)
				}
				prev = fi.Size()
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if compactions.Load() == 0 {
		t.Fatalf("%d checkpoint records (%d bytes) never triggered a compaction", homes*rounds, size())
	}
	// h0 finishes and h1 is removed; h2 checkpoints once more.
	for _, rec := range []ManifestRecord{
		{Op: manifestOpDone, Home: home(0), Outcome: &stream.HomeOutcome{ID: home(0), Status: stream.OutcomeCompleted}},
		{Op: manifestOpRemove, Home: home(1)},
		ckRec(2, rounds+1),
	} {
		if err := man.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := man.Close(); err != nil {
		t.Fatal(err)
	}
	man, recs, err = OpenManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer man.Close()
	newest := map[string]int{}
	for _, rec := range recs {
		if rec.Op == manifestOpCheckpoint {
			if _, dup := newest[rec.Home]; dup {
				t.Fatalf("reopened journal holds two checkpoints of %s", rec.Home)
			}
			newest[rec.Home] = rec.Checkpoint.Days
		}
	}
	if want := map[string]int{home(2): rounds + 1, home(3): rounds}; !reflect.DeepEqual(newest, want) {
		t.Fatalf("reopened checkpoints %v, want %v", newest, want)
	}
	if got := size(); got > int64(live)+1024 {
		t.Fatalf("reopened journal is %d bytes, want about its %d live bytes", got, live)
	}
}
