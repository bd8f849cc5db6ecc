package adm

import (
	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/cluster"
	"github.com/acyd-lab/shatter/internal/geometry"
	"github.com/acyd-lab/shatter/internal/stats"
)

// LabeledEpisode is an episode with ground truth for ADM evaluation:
// Attack=true marks adversarially scheduled stays (positives).
type LabeledEpisode struct {
	aras.Episode
	Attack bool
}

// Evaluate classifies each labelled episode with the model (anomalous ⇒
// predicted attack) and returns the confusion matrix behind Table IV and
// Fig 5.
func Evaluate(m *Model, episodes []LabeledEpisode) stats.Confusion {
	var c stats.Confusion
	for _, e := range episodes {
		c.Observe(m.EpisodeAnomalous(e.Episode), e.Attack)
	}
	return c
}

// DetectionRate returns the fraction of attack episodes flagged anomalous —
// the "(60-100)% of BIoTA attack vectors identified" measurement in
// Section VII-A.
func DetectionRate(m *Model, episodes []LabeledEpisode) float64 {
	detected, total := 0, 0
	for _, e := range episodes {
		if !e.Attack {
			continue
		}
		total++
		if m.EpisodeAnomalous(e.Episode) {
			detected++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(detected) / float64(total)
}

// TunePoint is one hyperparameter setting's validity scores (Fig 4).
type TunePoint struct {
	Hyperparameter int
	DaviesBouldin  float64
	Silhouette     float64
	CalinskiHara   float64
}

// TuneDBSCAN sweeps MinPts over [lo, hi] step and scores the clustering of
// one occupant's pooled episode points with the three validity indices
// (Fig 4a).
func TuneDBSCAN(trace *aras.Trace, occupant int, eps float64, lo, hi, step int) []TunePoint {
	pts := pooledPoints(trace, occupant)
	var out []TunePoint
	for mp := lo; mp <= hi; mp += step {
		res, err := cluster.DBSCAN(pts, cluster.DBSCANParams{Eps: eps, MinPts: mp})
		if err != nil {
			continue
		}
		out = append(out, TunePoint{
			Hyperparameter: mp,
			DaviesBouldin:  cluster.DaviesBouldin(pts, res),
			Silhouette:     cluster.Silhouette(pts, res),
			CalinskiHara:   cluster.CalinskiHarabasz(pts, res),
		})
	}
	return out
}

// TuneKMeans sweeps k over [lo, hi] step (Fig 4b).
func TuneKMeans(trace *aras.Trace, occupant int, seed uint64, lo, hi, step int) []TunePoint {
	pts := pooledPoints(trace, occupant)
	var out []TunePoint
	for k := lo; k <= hi; k += step {
		if k > len(pts) {
			break
		}
		res, err := cluster.KMeans(pts, k, seed)
		if err != nil {
			continue
		}
		out = append(out, TunePoint{
			Hyperparameter: k,
			DaviesBouldin:  cluster.DaviesBouldin(pts, res),
			Silhouette:     cluster.Silhouette(pts, res),
			CalinskiHara:   cluster.CalinskiHarabasz(pts, res),
		})
	}
	return out
}

// pooledPoints collects one occupant's (arrival, stay) points across all
// zones, the feature space the paper tunes on.
func pooledPoints(trace *aras.Trace, occupant int) []geometry.Point {
	var pts []geometry.Point
	for _, e := range trace.Episodes(occupant) {
		pts = append(pts, geometry.Point{X: float64(e.ArrivalSlot), Y: float64(e.Duration)})
	}
	return pts
}
