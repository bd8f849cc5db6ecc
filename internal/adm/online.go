package adm

import (
	"fmt"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/home"
)

// Verdict is the online detector's judgement of one episode — the
// per-episode event the streaming runtime publishes with the day block that
// holds the episode, instead of waiting for a whole trace to materialize.
type Verdict struct {
	Episode aras.Episode
	// Anomalous mirrors Model.EpisodeAnomalous on the episode.
	Anomalous bool
}

// Detector scores a home's occupancy stream a day at a time: each day's
// columns are segmented by aras.AppendDayEpisodes and the trained model
// classifies every episode, the one cut at midnight included. Stays split
// at midnight, so a day's verdicts depend on that day's columns alone and
// the detector carries no state from one day to the next. Verdicts are
// identical to what the batch path computes from Trace.DayEpisodes +
// Model.EpisodeAnomalous on the same stream. A Detector reuses an episode
// buffer, so it is not safe for concurrent use; run one per home.
type Detector struct {
	model *Model
	eps   []aras.Episode // ObserveDay scratch
}

// NewDetector wraps a trained model for online use.
func NewDetector(m *Model) *Detector {
	return &Detector{model: m}
}

// Model returns the wrapped ADM.
func (d *Detector) Model() *Model { return d.model }

// ObserveDay scores one occupant's whole-day occupancy columns (zones[t],
// acts[t] for t = 0..aras.SlotsPerDay-1): it appends a verdict for every
// episode of the day to dst, in arrival order, and returns it. Days may be
// observed in any order, and observing a day again yields the same
// verdicts.
func (d *Detector) ObserveDay(day, occupant int, zones []home.ZoneID, acts []home.ActivityID, dst []Verdict) ([]Verdict, error) {
	if occupant < 0 || occupant >= len(d.model.house.Occupants) {
		return dst, fmt.Errorf("adm: occupant %d out of range", occupant)
	}
	if len(zones) != aras.SlotsPerDay || len(acts) != aras.SlotsPerDay {
		return dst, fmt.Errorf("adm: day columns sized %d/%d, want %d", len(zones), len(acts), aras.SlotsPerDay)
	}
	d.eps = aras.AppendDayEpisodes(d.eps[:0], day, occupant, zones, acts)
	for _, e := range d.eps {
		dst = append(dst, Verdict{Episode: e, Anomalous: d.model.EpisodeAnomalous(e)})
	}
	return dst, nil
}

// Flush returns no verdicts: ObserveDay classifies every episode of a day,
// so no stay is ever left open.
//
// Deprecated: every verdict comes from ObserveDay; Flush remains only for
// callers written against the per-slot detector.
func (d *Detector) Flush() []Verdict { return nil }
