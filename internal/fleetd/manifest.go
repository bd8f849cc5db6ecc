package fleetd

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"github.com/acyd-lab/shatter/internal/stream"
)

// The fleet manifest is the service's one durable store: every admitted job
// spec (the AddRequest, not the materialized jobs — replay re-resolves it
// through the job factory), every admin mutation (pause/resume/remove),
// every day-boundary checkpoint and every per-home completion is appended
// as one framed record. On restart, NewService replays the journal to
// rebuild the fleet: finished homes are restored from their journaled
// results without re-running, in-flight homes are re-admitted and resume
// from their newest journaled checkpoint. Each record is individually
// framed exactly like a stream checkpoint — 8-byte magic, big-endian
// payload length, CRC-32 (IEEE), then the JSON payload — so a reader
// rejects corruption before decoding anything, and a record half-written by
// a crash is recognizable as a torn tail rather than silent garbage.

// Manifest record operations.
const (
	manifestOpAdd        = "add"
	manifestOpPause      = "pause"
	manifestOpResume     = "resume"
	manifestOpRemove     = "remove"
	manifestOpDone       = "done"
	manifestOpCheckpoint = "checkpoint"
)

// ManifestRecord is one journal entry. Op selects which payload fields are
// meaningful: add carries the job spec, the per-home ops carry Home, done
// additionally carries the home's supervision record plus (for completed
// homes) its full deterministic result, and checkpoint carries the home's
// day-boundary checkpoint.
type ManifestRecord struct {
	Op string `json:"op"`
	// Add is the admitted job spec (op "add").
	Add *AddRequest `json:"add,omitempty"`
	// Home addresses the per-home ops (pause/resume/remove/done/checkpoint).
	Home string `json:"home,omitempty"`
	// Outcome is the terminal supervision record (op "done").
	Outcome *stream.HomeOutcome `json:"outcome,omitempty"`
	// Result is the completed home's full result (op "done" with a
	// completed/retried outcome); quarantined and removed homes have none.
	Result *stream.HomeResult `json:"result,omitempty"`
	// Checkpoint is the home's progress at a day boundary (op
	// "checkpoint"). A home's newest checkpoint is where a restart resumes
	// it; its done or remove record supersedes them all.
	Checkpoint *stream.Checkpoint `json:"checkpoint,omitempty"`
}

// manifestVersion is bumped when the serialized layout changes; readers
// reject other versions instead of guessing.
const manifestVersion = 1

// manifestMagic prefixes every serialized manifest record.
var manifestMagic = [8]byte{'S', 'H', 'M', 'F', 'S', 'T', '0' + manifestVersion, '\n'}

// maxManifestRecord bounds a record payload so a corrupted length header
// cannot force a huge allocation.
const maxManifestRecord = 64 << 20

// ErrBadManifest is returned when a manifest record fails structural
// validation: bad magic, truncation, checksum mismatch, malformed JSON, or
// an inconsistent payload. Corrupted journals must error cleanly, never
// replay garbage.
var ErrBadManifest = errors.New("fleetd: corrupt manifest")

// validateManifestRecord checks the internal consistency a decoded record
// must have before the service replays it. A checkpoint is checked for
// shape only; its content is Home.Restore's to judge, and a checkpoint that
// does not restore restarts its home from day 0.
func validateManifestRecord(rec *ManifestRecord) error {
	switch rec.Op {
	case manifestOpAdd:
		if rec.Add == nil {
			return fmt.Errorf("%w: add record missing spec", ErrBadManifest)
		}
	case manifestOpPause, manifestOpResume, manifestOpRemove:
		if rec.Home == "" {
			return fmt.Errorf("%w: %s record missing home", ErrBadManifest, rec.Op)
		}
	case manifestOpDone:
		if rec.Home == "" {
			return fmt.Errorf("%w: done record missing home", ErrBadManifest)
		}
		if rec.Outcome == nil {
			return fmt.Errorf("%w: done record for %q missing outcome", ErrBadManifest, rec.Home)
		}
		if rec.Outcome.ID != rec.Home {
			return fmt.Errorf("%w: done record home %q holds outcome of %q", ErrBadManifest, rec.Home, rec.Outcome.ID)
		}
		if rec.Result != nil && rec.Result.ID != rec.Home {
			return fmt.Errorf("%w: done record home %q holds result of %q", ErrBadManifest, rec.Home, rec.Result.ID)
		}
	case manifestOpCheckpoint:
		if rec.Home == "" {
			return fmt.Errorf("%w: checkpoint record missing home", ErrBadManifest)
		}
		if rec.Checkpoint == nil {
			return fmt.Errorf("%w: checkpoint record for %q missing checkpoint", ErrBadManifest, rec.Home)
		}
		if rec.Checkpoint.Home != rec.Home {
			return fmt.Errorf("%w: checkpoint record home %q holds checkpoint of %q", ErrBadManifest, rec.Home, rec.Checkpoint.Home)
		}
	default:
		return fmt.Errorf("%w: unknown op %q", ErrBadManifest, rec.Op)
	}
	return nil
}

// encodeManifestRecord frames one record: magic, payload length, CRC-32,
// then the JSON payload — the same trailer-free fixed header as a stream
// checkpoint.
func encodeManifestRecord(rec *ManifestRecord) ([]byte, error) {
	if err := validateManifestRecord(rec); err != nil {
		return nil, err
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("fleetd: encode manifest record: %w", err)
	}
	if len(payload) > maxManifestRecord {
		return nil, fmt.Errorf("fleetd: manifest record %d bytes exceeds limit", len(payload))
	}
	frame := make([]byte, 16+len(payload))
	copy(frame[:8], manifestMagic[:])
	binary.BigEndian.PutUint32(frame[8:12], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[12:16], crc32.ChecksumIEEE(payload))
	copy(frame[16:], payload)
	return frame, nil
}

// WriteManifestRecord serializes one record, reaching w as a single Write.
func WriteManifestRecord(w io.Writer, rec *ManifestRecord) error {
	frame, err := encodeManifestRecord(rec)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// readManifestRecord decodes one record from r and reports its frame
// length. A clean end of journal returns io.EOF; a record cut off mid-write
// (the torn tail a kill -9 leaves) returns an error wrapping both
// ErrBadManifest and io.ErrUnexpectedEOF, so loaders can distinguish crash
// truncation from in-place corruption; every other malformed input wraps
// ErrBadManifest. It never panics and never returns a record that fails
// validation.
func readManifestRecord(r io.Reader) (*ManifestRecord, int, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, fmt.Errorf("%w: truncated header: %w", ErrBadManifest, io.ErrUnexpectedEOF)
	}
	if [8]byte(hdr[:8]) != manifestMagic {
		return nil, 0, fmt.Errorf("%w: bad magic %q", ErrBadManifest, hdr[:8])
	}
	n := binary.BigEndian.Uint32(hdr[8:12])
	if n > maxManifestRecord {
		return nil, 0, fmt.Errorf("%w: payload length %d exceeds limit", ErrBadManifest, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, 0, fmt.Errorf("%w: truncated payload: %w", ErrBadManifest, io.ErrUnexpectedEOF)
	}
	if sum := crc32.ChecksumIEEE(payload); sum != binary.BigEndian.Uint32(hdr[12:16]) {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrBadManifest)
	}
	rec := &ManifestRecord{}
	if err := json.Unmarshal(payload, rec); err != nil {
		return nil, 0, fmt.Errorf("%w: decode: %v", ErrBadManifest, err)
	}
	if err := validateManifestRecord(rec); err != nil {
		return nil, 0, err
	}
	return rec, len(hdr) + int(n), nil
}

// ReadManifest strictly decodes a whole journal: every record must be
// well-formed, including the last. This is the validation entry point (and
// the fuzz target); the service's own loader additionally tolerates a torn
// final record (see OpenManifest).
func ReadManifest(r io.Reader) ([]ManifestRecord, error) {
	var recs []ManifestRecord
	for {
		rec, _, err := readManifestRecord(r)
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, *rec)
	}
}

// manifestName is the journal file inside the state dir; lockName is the
// file whose flock marks the dir as owned by a live process. The lock needs
// its own file because compaction replaces the journal by rename.
const (
	manifestName = "fleet.manifest"
	lockName     = "fleet.lock"
)

// ErrStateDirLocked is OpenManifest's error when another live manifest
// (in this process or another) holds the state dir.
var ErrStateDirLocked = errors.New("fleetd: state dir is locked by another fleet manifest")

// ManifestPath names the journal inside a state dir.
func ManifestPath(dir string) string { return filepath.Join(dir, manifestName) }

// compactFloor is the slack of the online compaction trigger: Append
// rewrites the journal once it grows past twice its size after the last
// compaction plus this many bytes, so a small journal is not rewritten
// every few home-days. A day-boundary checkpoint record is about a
// kilobyte in a home's first days and grows with the days it has run.
const compactFloor = 1 << 20

// recordRef indexes one journal record: the op and home that decide
// whether compaction keeps it, and its frame length on disk.
type recordRef struct {
	op, home string
	n        int
}

// Manifest is the open journal: an append-only file handle, the
// serialization lock, and an index of the file's records that lets
// compaction copy the surviving frames without decoding them. Appends from
// shard workers (checkpoint and done records) and the admin path
// (add/pause/resume/remove) interleave safely.
type Manifest struct {
	mu   sync.Mutex
	path string
	f    *os.File
	lock *os.File    // holds the state dir's flock until Close
	refs []recordRef // every record in the file, in order
	size int64       // the file's length
	// limit is the size past which Append compacts: twice the size after
	// the last compaction, plus compactFloor.
	limit int64
}

// OpenManifest opens (creating when absent) dir's manifest journal and
// replays its records in compacted form (see CompactManifest). Crash
// truncation is absorbed here: a torn final record — the only damage an
// append-only journal can take from a kill -9, since rewrites are atomic —
// is dropped, and the journal is rewritten atomically whenever it holds a
// torn tail or superseded records. Any other corruption is an error: the
// journal is the fleet's source of truth, and a scribbled-on one must not
// silently replay a subset.
//
// The manifest holds an exclusive lock on the state dir until Close: a
// second opener, while this one lives, fails at once with
// ErrStateDirLocked instead of appending to and compacting the same
// journal.
func OpenManifest(dir string) (*Manifest, []ManifestRecord, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	lock, err := lockStateDir(dir)
	if err != nil {
		return nil, nil, err
	}
	m := &Manifest{path: ManifestPath(dir), lock: lock}
	recs, err := m.open()
	if err != nil {
		lock.Close()
		return nil, nil, err
	}
	return m, recs, nil
}

// open replays the journal, compacts it when needed and opens the append
// handle.
func (m *Manifest) open() ([]ManifestRecord, error) {
	os.Remove(m.path + ".tmp") // a rewrite a crash interrupted; the journal is intact
	recs, torn, err := m.load()
	if err != nil {
		return nil, err
	}
	keep := compactKeep(m.refs)
	if torn || len(keep) != len(recs) {
		if err := m.rewrite(keep); err != nil {
			return nil, err
		}
		recs = pick(recs, keep)
	}
	f, err := os.OpenFile(m.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	m.f = f
	m.limit = 2*m.size + compactFloor
	return recs, nil
}

// load reads the journal leniently, indexing every record: a torn tail
// truncates the replay (torn=true) instead of failing it.
func (m *Manifest) load() (recs []ManifestRecord, torn bool, err error) {
	f, err := os.Open(m.path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	for {
		rec, n, rerr := readManifestRecord(br)
		if rerr == io.EOF {
			return recs, false, nil
		}
		if errors.Is(rerr, io.ErrUnexpectedEOF) {
			return recs, true, nil
		}
		if rerr != nil {
			return nil, false, rerr
		}
		recs = append(recs, *rec)
		m.refs = append(m.refs, recordRef{op: rec.Op, home: rec.Home, n: n})
		m.size += int64(n)
	}
}

// CompactManifest rewrites a replayed record sequence into its minimal
// equivalent (see compactKeep).
func CompactManifest(recs []ManifestRecord) []ManifestRecord {
	refs := make([]recordRef, len(recs))
	for i := range recs {
		refs[i] = recordRef{op: recs[i].Op, home: recs[i].Home}
	}
	return pick(recs, compactKeep(refs))
}

// compactKeep is the compaction rule. It returns the indices of the
// records that survive, in compacted order: add records, removals and
// completions in journal order, then the still-effective pauses and the
// newest checkpoint of every home no done or remove record ended.
// Pause/resume pairs that cancelled out and superseded checkpoints are
// dropped. Replay order within the compacted form is immaterial: mutations
// always refer to homes an add record introduces, and the service applies
// them as final state, not as a replayed timeline.
func compactKeep(refs []recordRef) []int {
	paused := make(map[string]bool)
	ended := make(map[string]bool)
	newest := make(map[string]int)
	keep := make([]int, 0, len(refs))
	for i, r := range refs {
		switch r.op {
		case manifestOpAdd:
			keep = append(keep, i)
		case manifestOpRemove, manifestOpDone:
			keep = append(keep, i)
			ended[r.home] = true
		case manifestOpPause:
			paused[r.home] = true
		case manifestOpResume:
			delete(paused, r.home)
		case manifestOpCheckpoint:
			newest[r.home] = i
		}
	}
	for i, r := range refs {
		switch {
		case r.op == manifestOpPause && paused[r.home]:
			keep = append(keep, i)
			delete(paused, r.home)
		case r.op == manifestOpCheckpoint && newest[r.home] == i && !ended[r.home]:
			keep = append(keep, i)
		}
	}
	return keep
}

// pick selects recs[keep[0]], recs[keep[1]], ….
func pick(recs []ManifestRecord, keep []int) []ManifestRecord {
	out := make([]ManifestRecord, len(keep))
	for j, i := range keep {
		out[j] = recs[i]
	}
	return out
}

// rewrite atomically replaces the journal with the records at keep,
// copying their frames from the file without decoding them: read each with
// ReadAt into one reused buffer, write it through a buffered writer to the
// temp file beside the journal, fsync, rename over the old journal. A crash
// anywhere in the rewrite leaves either the old or the new journal intact
// (and at most a stale temp file, which the next rewrite truncates and
// OpenManifest removes). The index and size then describe the new file;
// the caller reopens the append handle.
func (m *Manifest) rewrite(keep []int) error {
	offs := make([]int64, len(m.refs)+1)
	for i, r := range m.refs {
		offs[i+1] = offs[i] + int64(r.n)
	}
	src, err := os.Open(m.path)
	if err != nil {
		return err
	}
	defer src.Close()
	tmp, err := os.OpenFile(m.path+".tmp", os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(tmp)
	refs := make([]recordRef, len(keep))
	var size int64
	var frame []byte
	for j, i := range keep {
		refs[j] = m.refs[i]
		size += int64(refs[j].n)
		if cap(frame) < refs[j].n {
			frame = make([]byte, refs[j].n)
		}
		frame = frame[:refs[j].n]
		if n, rerr := src.ReadAt(frame, offs[i]); rerr != nil {
			err = fmt.Errorf("fleetd: copy manifest record %d (%d of %d bytes): %v", i, n, refs[j].n, rerr)
			break
		}
		if _, err = w.Write(frame); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), m.path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	m.refs, m.size = refs, size
	return nil
}

// errManifestClosed is Append's error after Close.
var errManifestClosed = errors.New("fleetd: manifest closed")

// Append journals one record. Appends are buffered by the OS, not fsynced:
// a process kill keeps them (the kernel owns the pages), and the power-loss
// window is closed by the Sync the admin paths and Close perform. A failed
// write is cut back off the file, so no later record follows a partial
// frame. Once the journal outgrows its limit, Append compacts it in place
// (see compactKeep); a failed compaction leaves the journal as it was, with
// the record in it, and is returned.
func (m *Manifest) Append(rec ManifestRecord) error {
	frame, err := encodeManifestRecord(&rec)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.f == nil {
		return errManifestClosed
	}
	if _, err := m.f.Write(frame); err != nil {
		if terr := m.f.Truncate(m.size); terr != nil {
			m.closeLocked()
		}
		return err
	}
	m.refs = append(m.refs, recordRef{op: rec.Op, home: rec.Home, n: len(frame)})
	m.size += int64(len(frame))
	if m.size <= m.limit {
		return nil
	}
	err = m.compactLocked()
	m.limit = 2*m.size + compactFloor
	return err
}

// compactLocked rewrites the journal to its compacted form and reopens the
// append handle on the new file.
func (m *Manifest) compactLocked() error {
	if err := m.rewrite(compactKeep(m.refs)); err != nil {
		return fmt.Errorf("fleetd: compact manifest: %w", err)
	}
	m.f.Close() // the handle still points at the replaced file
	f, err := os.OpenFile(m.path, os.O_WRONLY|os.O_APPEND, 0o644)
	m.f = f
	if err != nil {
		return fmt.Errorf("fleetd: compact manifest: %w", err)
	}
	return nil
}

// Sync flushes the journal to stable storage.
func (m *Manifest) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.f == nil {
		return nil
	}
	return m.f.Sync()
}

// Close syncs and closes the journal and releases the state dir's lock.
// Idempotent.
func (m *Manifest) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	defer m.lock.Close() // nil-safe; closing twice is harmless
	return m.closeLocked()
}

func (m *Manifest) closeLocked() error {
	if m.f == nil {
		return nil
	}
	err := m.f.Sync()
	if cerr := m.f.Close(); err == nil {
		err = cerr
	}
	m.f = nil
	return err
}
