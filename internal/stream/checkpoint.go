package stream

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/url"
	"os"
	"path/filepath"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/hvac"
)

// Checkpoint is one home's serialized progress at a day boundary: the
// stream cursor (Days completed; the next block is day Days), the
// incremental HVAC plant state, and the accounting so far. Detection holds
// no state across days — every episode closes and is labelled with its own
// block — so a defended, attacked home checkpoints no more than a benign
// one. A home restored from a checkpoint and driven to end-of-stream
// produces results byte-identical to one that ran uninterrupted — the
// resilience layer's equivalence lock.
type Checkpoint struct {
	Version int    `json:"version"`
	Home    string `json:"home"`
	// Days counts completed days; the restored stream resumes at (Days, 0).
	Days int           `json:"days"`
	Sim  hvac.SimState `json:"sim"`
	// Defended and Labeling record whether the home ran the online detector
	// and injection labelling; a restore onto a home configured otherwise
	// is rejected.
	Defended bool `json:"defended,omitempty"`
	Labeling bool `json:"labeling,omitempty"`
	// Result is the accounting through the last completed day (its Sim
	// field stays zero until Close).
	Result HomeResult `json:"result"`
}

// checkpointVersion is bumped when the serialized layout changes; readers
// reject other versions instead of guessing.
const checkpointVersion = 2

// checkpointMagic prefixes every serialized checkpoint.
var checkpointMagic = [8]byte{'S', 'H', 'C', 'K', 'P', 'T', '0' + checkpointVersion, '\n'}

// maxCheckpoint bounds a checkpoint payload so a corrupted length header
// cannot force a huge allocation.
const maxCheckpoint = 64 << 20

// ErrBadCheckpoint is returned when a checkpoint fails structural
// validation: bad magic, truncation, checksum mismatch, or inconsistent
// cursors. Corrupted files must error cleanly, never restore garbage.
var ErrBadCheckpoint = errors.New("stream: corrupt checkpoint")

// ErrCheckpointMidDay is returned when a checkpoint is requested between
// day boundaries.
var ErrCheckpointMidDay = errors.New("stream: checkpoint only at a day boundary")

// Checkpoint captures the home's progress. It is only valid at a day
// boundary — after ingesting the last slot of a day and before the first
// slot of the next — which is where the fleet supervisor snapshots.
func (h *Home) Checkpoint() (*Checkpoint, error) {
	if h.closed {
		return nil, errors.New("stream: checkpoint after Close")
	}
	sim, err := h.sim.Snapshot()
	if err != nil {
		if errors.Is(err, hvac.ErrMidDay) {
			return nil, fmt.Errorf("%w (home %s, day %d slot %d)", ErrCheckpointMidDay, h.cfg.ID, h.sim.Day(), h.sim.SlotOfDay())
		}
		return nil, err
	}
	ck := &Checkpoint{
		Version:  checkpointVersion,
		Home:     h.cfg.ID,
		Days:     sim.Day,
		Sim:      sim,
		Defended: h.det != nil,
		Labeling: h.labeling,
		Result:   h.res,
	}
	ck.Result.Sim = hvac.Result{}
	return ck, nil
}

// Restore applies a checkpoint to a freshly constructed Home with the same
// configuration (house, controller, defender, injector). The target must
// not have ingested any frames; structural mismatches error without
// leaving the home half-restored.
func (h *Home) Restore(ck *Checkpoint) error {
	if ck == nil {
		return errors.New("stream: nil checkpoint")
	}
	if h.closed || h.res.Slots != 0 || h.sim.Day() != 0 || h.sim.SlotOfDay() != 0 {
		return errors.New("stream: restore target already streamed")
	}
	if err := validateCheckpoint(ck); err != nil {
		return err
	}
	if ck.Home != h.cfg.ID {
		return fmt.Errorf("%w: checkpoint for home %q applied to %q", ErrBadCheckpoint, ck.Home, h.cfg.ID)
	}
	if ck.Defended != (h.det != nil) || ck.Labeling != h.labeling {
		return fmt.Errorf("%w: defender/labelling configuration mismatch for home %q", ErrBadCheckpoint, h.cfg.ID)
	}
	if err := h.sim.Restore(ck.Sim); err != nil {
		return fmt.Errorf("stream: restore %s plant: %w", h.cfg.ID, err)
	}
	h.res = ck.Result
	h.res.ID = h.cfg.ID
	h.res.Sim = hvac.Result{}
	return nil
}

// validateCheckpoint checks the internal consistency a decoded checkpoint
// must have before any of it is applied.
func validateCheckpoint(ck *Checkpoint) error {
	if ck.Version != checkpointVersion {
		return fmt.Errorf("%w: version %d, want %d", ErrBadCheckpoint, ck.Version, checkpointVersion)
	}
	if ck.Days < 0 || ck.Sim.Day != ck.Days {
		return fmt.Errorf("%w: day cursor %d vs plant day %d", ErrBadCheckpoint, ck.Days, ck.Sim.Day)
	}
	if ck.Result.Days != ck.Days || ck.Result.Slots != int64(ck.Days)*int64(aras.SlotsPerDay) {
		return fmt.Errorf("%w: result covers %d days / %d slots, cursor says %d days", ErrBadCheckpoint, ck.Result.Days, ck.Result.Slots, ck.Days)
	}
	return nil
}

// WriteCheckpoint serializes a checkpoint: magic, payload length, CRC-32,
// then the JSON payload. The trailer-free fixed header lets a reader
// reject truncated or corrupted files before decoding anything. The frame
// reaches w as a single Write.
func WriteCheckpoint(w io.Writer, ck *Checkpoint) error {
	payload, err := json.Marshal(ck)
	if err != nil {
		return fmt.Errorf("stream: encode checkpoint: %w", err)
	}
	if len(payload) > maxCheckpoint {
		return fmt.Errorf("stream: checkpoint payload %d bytes exceeds limit", len(payload))
	}
	frame := make([]byte, 16+len(payload))
	copy(frame[:8], checkpointMagic[:])
	binary.BigEndian.PutUint32(frame[8:12], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[12:16], crc32.ChecksumIEEE(payload))
	copy(frame[16:], payload)
	_, err = w.Write(frame)
	return err
}

// ReadCheckpoint decodes a serialized checkpoint, rejecting bad magic,
// truncation, oversized payloads, checksum mismatches, malformed JSON, and
// structurally inconsistent state with ErrBadCheckpoint-wrapped errors. It
// never panics and never returns a checkpoint that fails validation.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadCheckpoint, err)
	}
	if [8]byte(hdr[:8]) != checkpointMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadCheckpoint, hdr[:8])
	}
	n := binary.BigEndian.Uint32(hdr[8:12])
	if n > maxCheckpoint {
		return nil, fmt.Errorf("%w: payload length %d exceeds limit", ErrBadCheckpoint, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: truncated payload: %v", ErrBadCheckpoint, err)
	}
	if sum := crc32.ChecksumIEEE(payload); sum != binary.BigEndian.Uint32(hdr[12:16]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadCheckpoint)
	}
	ck := &Checkpoint{}
	if err := json.Unmarshal(payload, ck); err != nil {
		return nil, fmt.Errorf("%w: decode: %v", ErrBadCheckpoint, err)
	}
	if err := validateCheckpoint(ck); err != nil {
		return nil, err
	}
	return ck, nil
}

// checkpointPath names a home's checkpoint file inside dir; home IDs are
// percent-escaped so procedural IDs ("synth:12x4@55") stay filesystem-safe.
func checkpointPath(dir, homeID string) string {
	return filepath.Join(dir, url.PathEscape(homeID)+".ckpt")
}

// SaveCheckpoint atomically writes a home's checkpoint to its own file
// under dir (write to a temp file, fsync-free rename).
//
// Deprecated: the fleet journals checkpoints as records of its manifest,
// and nothing in the fleet reads these files.
func SaveCheckpoint(dir string, ck *Checkpoint) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := checkpointPath(dir, ck.Home)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if err := WriteCheckpoint(tmp, ck); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// RemoveCheckpoint deletes the file SaveCheckpoint wrote; a missing file
// is fine.
//
// Deprecated: see SaveCheckpoint.
func RemoveCheckpoint(dir, homeID string) error {
	err := os.Remove(checkpointPath(dir, homeID))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
}

// DaySeeker is implemented by sources that can reposition to the start of
// a day — the restore path's way of fast-forwarding a freshly opened
// source to a checkpoint's cursor. Deterministic sources (the generator
// replays and discards the skipped days, evolving its RNG streams exactly
// as an uninterrupted run would; traces jump in O(1)) make the resumed
// stream byte-identical to the uninterrupted one.
type DaySeeker interface {
	SeekDay(day int) error
}
