// Package adm implements the paper's anomaly detection model (Section
// IV-B): per-(occupant, zone) clustering of (arrival-time, stay-duration)
// pairs, linearised as convex hulls so the attack analysis can reason about
// membership with the LeftOfLineSegment predicate (Eqs 5-10, Fig 7).
//
// The ADM answers four queries the attack framework depends on:
//
//   - WithinCluster — is a completed stay consistent with learned habits?
//   - MaxStay — the longest stealthy stay for an arrival time (Eq 19).
//   - MinStay — the shortest stealthy stay (Algorithm 1's threshold).
//   - InRangeStay — is a proposed (arrival, stay) pair stealthy? (Eq 20).
package adm

import (
	"errors"
	"fmt"
	"math"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/cluster"
	"github.com/acyd-lab/shatter/internal/geometry"
	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/solver"
)

// Algorithm selects the clustering backend.
type Algorithm int

// The two ADM backends the paper evaluates.
const (
	DBSCAN Algorithm = iota + 1
	KMeans
)

// String names the algorithm for table output.
func (a Algorithm) String() string {
	switch a {
	case DBSCAN:
		return "DBSCAN"
	case KMeans:
		return "K-Means"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Config parameterises training.
type Config struct {
	Algorithm Algorithm
	// MinPts and Eps configure DBSCAN (Fig 4a tunes MinPts; the paper works
	// at MinPts = 30). Eps defaults to 20 minutes when zero.
	MinPts int
	Eps    float64
	// K configures K-Means (Fig 4b; the paper works at k = 29). A zone's
	// point count may be below K; the trainer then uses one cluster per
	// distinct point neighbourhood (K clamped to the sample count).
	K int
	// Seed drives K-Means initialisation.
	Seed uint64
}

// DefaultConfig returns the paper's chosen hyperparameters for the backend.
func DefaultConfig(alg Algorithm) Config {
	switch alg {
	case KMeans:
		return Config{Algorithm: KMeans, K: 29, Seed: 7}
	default:
		return Config{Algorithm: DBSCAN, MinPts: 30, Eps: 20, Seed: 7}
	}
}

// key identifies a per-occupant, per-zone model.
type key struct {
	occupant int
	zone     home.ZoneID
}

// Model is a trained ADM for one house. It is immutable once Train
// returns, so a trained Model is safe for concurrent readers.
type Model struct {
	Algorithm Algorithm
	house     *home.House
	// hulls[k] are the convex-hull cluster regions for that occupant/zone.
	hulls map[key][]geometry.Hull
	// trainingPoints retains the raw points for reporting (Fig 6).
	trainingPoints map[key][]geometry.Point
	// bands[o] tabulates occupant o's stay queries over every zone and
	// integer arrival slot of a day (see bands.go): the Model's one stay
	// table, read by its own queries and by the attack solver's hot path.
	bands []*solver.StayBands
}

// ErrNoData is returned when a trace yields no episodes to train on.
var ErrNoData = errors.New("adm: no training episodes")

// Train fits the ADM on all occupants' episodes in the trace.
func Train(trace *aras.Trace, cfg Config) (*Model, error) {
	m := &Model{
		Algorithm:      cfg.Algorithm,
		house:          trace.House,
		hulls:          make(map[key][]geometry.Hull),
		trainingPoints: make(map[key][]geometry.Point),
	}
	if cfg.Eps == 0 {
		cfg.Eps = 20
	}
	trained := false
	for o := range trace.House.Occupants {
		byZone := make(map[home.ZoneID][]geometry.Point)
		total := 0
		for _, e := range trace.Episodes(o) {
			p := geometry.Point{X: float64(e.ArrivalSlot), Y: float64(e.Duration)}
			byZone[e.Zone] = append(byZone[e.Zone], p)
			total++
		}
		for z, pts := range byZone {
			k := key{occupant: o, zone: z}
			m.trainingPoints[k] = pts
			// The paper tunes K-Means' k on the occupant's pooled episode
			// set (Fig 4b); the per-zone models split that budget
			// proportionally to each zone's share of the episodes.
			zoneCfg := cfg
			if cfg.Algorithm == KMeans && total > 0 {
				share := float64(len(pts)) / float64(total)
				zoneCfg.K = int(float64(cfg.K)*share + 0.5)
				if zoneCfg.K < 1 {
					zoneCfg.K = 1
				}
			}
			hulls, err := clusterHulls(pts, zoneCfg)
			if err != nil {
				return nil, fmt.Errorf("adm: occupant %d zone %v: %w", o, z, err)
			}
			m.hulls[k] = hulls
			trained = true
		}
	}
	if !trained {
		return nil, ErrNoData
	}
	m.bands = make([]*solver.StayBands, len(trace.House.Occupants))
	for o := range m.bands {
		m.bands[o] = buildStayBands(m.hulls, o, len(trace.House.Zones))
	}
	return m, nil
}

// clusterHulls clusters the points and produces one convex hull per
// non-noise cluster (clusters that degenerate to fewer than 1 point are
// dropped).
func clusterHulls(pts []geometry.Point, cfg Config) ([]geometry.Hull, error) {
	var res cluster.Result
	var err error
	switch cfg.Algorithm {
	case DBSCAN:
		res, err = cluster.DBSCAN(pts, cluster.DBSCANParams{Eps: cfg.Eps, MinPts: cfg.MinPts})
	case KMeans:
		k := cfg.K
		if k > len(pts) {
			k = len(pts)
		}
		if k < 1 {
			k = 1
		}
		res, err = cluster.KMeans(pts, k, cfg.Seed)
	default:
		err = fmt.Errorf("unknown algorithm %v", cfg.Algorithm)
	}
	if err != nil {
		return nil, err
	}
	hulls := make([]geometry.Hull, 0, res.K)
	for c := 0; c < res.K; c++ {
		members := res.Members(pts, c)
		if len(members) == 0 {
			continue
		}
		h, err := geometry.ConvexHull(members)
		if err != nil {
			continue
		}
		hulls = append(hulls, h)
	}
	return hulls, nil
}

// table returns the occupant's stay table when it answers the query: an
// in-day arrival of a known occupant, in any zone (the table reads a zone
// or arrival its hulls do not cover as uncovered). ok=false for an arrival
// beyond the day or an unknown occupant, where hull geometry answers.
func (m *Model) table(occupant, arrivalSlot int) (*solver.StayBands, bool) {
	if occupant < 0 || occupant >= len(m.bands) || arrivalSlot < 0 || arrivalSlot >= aras.SlotsPerDay {
		return nil, false
	}
	return m.bands[occupant], true
}

// WithinCluster reports whether the (arrival, stay) pair falls inside any
// learned cluster hull for the occupant/zone (Eq 9).
func (m *Model) WithinCluster(occupant int, zone home.ZoneID, arrivalSlot, stayMinutes int) bool {
	if b, ok := m.table(occupant, arrivalSlot); ok {
		return b.InRange(zone, arrivalSlot, stayMinutes)
	}
	return hullsContain(m.hulls[key{occupant: occupant, zone: zone}], arrivalSlot, stayMinutes)
}

// hullsContain is WithinCluster by hull geometry.
func hullsContain(hulls []geometry.Hull, arrivalSlot, stayMinutes int) bool {
	p := geometry.Point{X: float64(arrivalSlot), Y: float64(stayMinutes)}
	for _, h := range hulls {
		if h.Contains(p) {
			return true
		}
	}
	return false
}

// StayRange returns the union [min, max] of stealthy stay durations for an
// arrival time, and ok=false when no cluster covers the arrival time at
// all. The range may contain gaps between clusters; use InRangeStay to test
// a specific duration.
func (m *Model) StayRange(occupant int, zone home.ZoneID, arrivalSlot int) (minStay, maxStay int, ok bool) {
	if b, ok := m.table(occupant, arrivalSlot); ok {
		return b.StayRangeAt(zone, arrivalSlot)
	}
	return hullStayRange(m.hulls[key{occupant: occupant, zone: zone}], arrivalSlot)
}

// hullStayRange is StayRange by hull geometry: the union of the hulls'
// stay intervals at the arrival.
func hullStayRange(hulls []geometry.Hull, arrivalSlot int) (minStay, maxStay int, ok bool) {
	lo, hi := math.Inf(1), math.Inf(-1)
	found := false
	for _, h := range hulls {
		l, u, in := h.YRangeAtX(float64(arrivalSlot))
		if !in {
			continue
		}
		lo = math.Min(lo, l)
		hi = math.Max(hi, u)
		found = true
	}
	if !found {
		return 0, 0, false
	}
	minStay, maxStay = solver.IntegerStayRange(lo, hi)
	return minStay, maxStay, true
}

// MaxStay returns the maximum stealthy stay for the arrival time (Eq 19's
// maxStay(.)); ok=false when the arrival itself is anomalous.
func (m *Model) MaxStay(occupant int, zone home.ZoneID, arrivalSlot int) (int, bool) {
	_, maxStay, ok := m.StayRange(occupant, zone, arrivalSlot)
	return maxStay, ok
}

// MinStay returns the minimum stealthy stay for the arrival time
// (Algorithm 1's minStay(.)); ok=false when the arrival is anomalous.
func (m *Model) MinStay(occupant int, zone home.ZoneID, arrivalSlot int) (int, bool) {
	minStay, _, ok := m.StayRange(occupant, zone, arrivalSlot)
	return minStay, ok
}

// InRangeStay reports whether exiting after stayMinutes is stealthy for the
// arrival time (Eq 20's inRangeStay(.)).
func (m *Model) InRangeStay(occupant int, zone home.ZoneID, arrivalSlot, stayMinutes int) bool {
	return m.WithinCluster(occupant, zone, arrivalSlot, stayMinutes)
}

// EpisodeAnomalous classifies a completed episode: outside-zone stays are
// never anomalous (the ADM watches in-home behaviour; "Outside" has its own
// clusters trained like any zone).
func (m *Model) EpisodeAnomalous(e aras.Episode) bool {
	return !m.WithinCluster(e.Occupant, e.Zone, e.ArrivalSlot, e.Duration)
}

// HullStats summarises the learned geometry for Fig 6's comparison.
type HullStats struct {
	Clusters  int
	TotalArea float64
	// NoisePruned counts training points not covered by any hull (only
	// DBSCAN prunes points; K-Means covers everything by construction).
	NoisePruned int
}

// Stats aggregates hull geometry across all occupant/zone models.
func (m *Model) Stats() HullStats {
	var s HullStats
	for k, hulls := range m.hulls {
		s.Clusters += len(hulls)
		for _, h := range hulls {
			s.TotalArea += h.Area()
		}
		for _, p := range m.trainingPoints[k] {
			covered := false
			for _, h := range hulls {
				if h.Contains(p) {
					covered = true
					break
				}
			}
			if !covered {
				s.NoisePruned++
			}
		}
	}
	return s
}
