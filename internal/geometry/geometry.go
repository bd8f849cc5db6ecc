// Package geometry implements the 2-D computational geometry the SHATTER
// framework uses to linearise clustering-based anomaly detection models:
// convex hulls (QuickHull, Barber et al. — paper reference [17]), the
// LeftOfLineSegment predicate of Eq 10, point-in-hull membership of Eq 9,
// and hull measures used by the Fig 6 cluster-geometry comparison.
package geometry

import (
	"fmt"
	"math"
	"sort"
)

// Point is a point in the (arrival-time, stay-duration) plane — or any other
// 2-D feature plane.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Sub returns p − q as a vector.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Cross returns the z component of the cross product (q−p) × (r−p).
// Positive means r is to the left of the directed line p→q.
func Cross(p, q, r Point) float64 {
	return (q.X-p.X)*(r.Y-p.Y) - (q.Y-p.Y)*(r.X-p.X)
}

// Segment is a directed line segment. In a counter-clockwise hull boundary,
// interior points lie strictly to the left of every directed edge.
type Segment struct {
	A Point `json:"a"`
	B Point `json:"b"`
}

// LeftOfLineSegment reports whether p lies strictly to the left of the
// directed segment (Eq 10 in the paper uses the symmetric "< 0" form for
// clockwise edges; we orient hulls counter-clockwise so "left" is interior).
// Points exactly on the line are not "left"; use LeftOrOn for closed tests.
func (s Segment) LeftOfLineSegment(p Point) bool {
	return Cross(s.A, s.B, p) > 0
}

// LeftOrOn reports whether p lies to the left of or exactly on the directed
// line through the segment. Closed hull membership uses this predicate so
// boundary points (e.g. the training points that define the hull) count as
// inside.
func (s Segment) LeftOrOn(p Point) bool {
	return Cross(s.A, s.B, p) >= -1e-9
}

// Len returns the segment's Euclidean length.
func (s Segment) Len() float64 { return s.A.Dist(s.B) }

// Hull is a convex hull with vertices in counter-clockwise order.
// A hull may be degenerate: a single point or a collinear segment.
type Hull struct {
	Vertices []Point `json:"vertices"`
}

// ErrTooFewPoints is returned by ConvexHull when given no points.
var ErrTooFewPoints = fmt.Errorf("geometry: convex hull of empty point set")

// ConvexHull computes the convex hull of pts using the monotone-chain
// variant of QuickHull-style divide and conquer. It runs in O(n log n),
// handles duplicate and collinear input, and returns vertices in
// counter-clockwise order. Degenerate inputs (1 point, collinear points)
// yield degenerate hulls that still support membership tests.
func ConvexHull(pts []Point) (Hull, error) {
	if len(pts) == 0 {
		return Hull{}, ErrTooFewPoints
	}
	// Copy and sort lexicographically.
	ps := make([]Point, len(pts))
	copy(ps, pts)
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].X != ps[j].X {
			return ps[i].X < ps[j].X
		}
		return ps[i].Y < ps[j].Y
	})
	// Deduplicate.
	uniq := ps[:1]
	for _, p := range ps[1:] {
		last := uniq[len(uniq)-1]
		if p != last {
			uniq = append(uniq, p)
		}
	}
	ps = uniq
	if len(ps) == 1 {
		return Hull{Vertices: []Point{ps[0]}}, nil
	}
	// Monotone chain: lower then upper hull.
	var lower, upper []Point
	for _, p := range ps {
		for len(lower) >= 2 && Cross(lower[len(lower)-2], lower[len(lower)-1], p) <= 0 {
			lower = lower[:len(lower)-1]
		}
		lower = append(lower, p)
	}
	for i := len(ps) - 1; i >= 0; i-- {
		p := ps[i]
		for len(upper) >= 2 && Cross(upper[len(upper)-2], upper[len(upper)-1], p) <= 0 {
			upper = upper[:len(upper)-1]
		}
		upper = append(upper, p)
	}
	// Concatenate, dropping the duplicated endpoints.
	hull := append(lower[:len(lower)-1], upper[:len(upper)-1]...)
	return Hull{Vertices: hull}, nil
}

// Edges returns the directed boundary edges of the hull in CCW order.
// Degenerate hulls return zero (point) or one (segment) edge.
func (h Hull) Edges() []Segment {
	n := len(h.Vertices)
	switch n {
	case 0, 1:
		return nil
	case 2:
		return []Segment{{h.Vertices[0], h.Vertices[1]}}
	}
	edges := make([]Segment, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, Segment{h.Vertices[i], h.Vertices[(i+1)%n]})
	}
	return edges
}

// Contains reports whether p is inside or on the hull (closed membership,
// Eq 9: the point must be LeftOrOn every CCW edge). Degenerate hulls test
// proximity to the point/segment within a small tolerance.
func (h Hull) Contains(p Point) bool {
	switch len(h.Vertices) {
	case 0:
		return false
	case 1:
		return h.Vertices[0].Dist(p) < 1e-9
	case 2:
		return distToSegment(p, h.Vertices[0], h.Vertices[1]) < 1e-9
	}
	for _, e := range h.Edges() {
		if !e.LeftOrOn(p) {
			return false
		}
	}
	return true
}

// Area returns the enclosed area via the shoelace formula (0 for degenerate
// hulls). Fig 6's observation that K-Means hulls cover more area than
// DBSCAN hulls is quantified with this.
func (h Hull) Area() float64 {
	n := len(h.Vertices)
	if n < 3 {
		return 0
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		a, b := h.Vertices[i], h.Vertices[(i+1)%n]
		sum += a.X*b.Y - b.X*a.Y
	}
	return math.Abs(sum) / 2
}

// Perimeter returns the hull boundary length.
func (h Hull) Perimeter() float64 {
	var sum float64
	for _, e := range h.Edges() {
		sum += e.Len()
	}
	if len(h.Vertices) == 2 {
		// A segment's boundary is traversed once in Edges; the perimeter of
		// the degenerate region is twice the segment length, but for our
		// reporting purposes the single-edge length is the useful measure.
		return sum
	}
	return sum
}

// BoundingBox returns the axis-aligned bounds (minX, minY, maxX, maxY).
func (h Hull) BoundingBox() (minX, minY, maxX, maxY float64) {
	if len(h.Vertices) == 0 {
		return 0, 0, 0, 0
	}
	minX, maxX = h.Vertices[0].X, h.Vertices[0].X
	minY, maxY = h.Vertices[0].Y, h.Vertices[0].Y
	for _, v := range h.Vertices[1:] {
		minX = math.Min(minX, v.X)
		maxX = math.Max(maxX, v.X)
		minY = math.Min(minY, v.Y)
		maxY = math.Max(maxY, v.Y)
	}
	return minX, minY, maxX, maxY
}

// YRangeAtX returns the [minY, maxY] interval of the hull at vertical line
// x, and ok=false when the line does not intersect the hull. The ADM uses
// this to answer MaxStay/MinStay queries: for an arrival time x, the valid
// stay durations are exactly the hull's y-interval at x.
func (h Hull) YRangeAtX(x float64) (minY, maxY float64, ok bool) {
	n := len(h.Vertices)
	if n == 0 {
		return 0, 0, false
	}
	if n == 1 {
		v := h.Vertices[0]
		if math.Abs(v.X-x) < 1e-9 {
			return v.Y, v.Y, true
		}
		return 0, 0, false
	}
	minY, maxY = math.Inf(1), math.Inf(-1)
	found := false
	edges := h.Edges()
	if n == 2 {
		// Treat the single segment bidirectionally.
		edges = append(edges, Segment{h.Vertices[1], h.Vertices[0]})
	}
	for _, e := range edges {
		lo, hi := e.A.X, e.B.X
		if lo > hi {
			lo, hi = hi, lo
		}
		if x < lo-1e-9 || x > hi+1e-9 {
			continue
		}
		var y float64
		if math.Abs(e.B.X-e.A.X) < 1e-12 {
			// Vertical edge: the whole y-span intersects.
			minY = math.Min(minY, math.Min(e.A.Y, e.B.Y))
			maxY = math.Max(maxY, math.Max(e.A.Y, e.B.Y))
			found = true
			continue
		}
		t := (x - e.A.X) / (e.B.X - e.A.X)
		y = e.A.Y + t*(e.B.Y-e.A.Y)
		minY = math.Min(minY, y)
		maxY = math.Max(maxY, y)
		found = true
	}
	if !found {
		return 0, 0, false
	}
	return minY, maxY, true
}

// ScanYRangesAtIntegerX reports the hull's y-interval at every integer x in
// [loX, hiX] that the hull intersects, with the same tolerance semantics as
// YRangeAtX — but walking the vertex ring directly, so a full scan performs
// no per-x allocation. Tabulation layers (the ADM's stay table) use
// this to precompute YRangeAtX over a dense integer domain.
func (h Hull) ScanYRangesAtIntegerX(loX, hiX int, emit func(x int, minY, maxY float64)) {
	n := len(h.Vertices)
	if n == 0 {
		return
	}
	if n == 1 {
		v := h.Vertices[0]
		x := int(math.Round(v.X))
		if x >= loX && x <= hiX && math.Abs(v.X-float64(x)) < 1e-9 {
			emit(x, v.Y, v.Y)
		}
		return
	}
	minX, _, maxX, _ := h.BoundingBox()
	if lo := int(math.Ceil(minX - 1e-9)); lo > loX {
		loX = lo
	}
	if hi := int(math.Floor(maxX + 1e-9)); hi < hiX {
		hiX = hi
	}
	edges := n
	if n == 2 {
		edges = 1 // a 2-vertex hull has a single (bidirectional) edge
	}
	for x := loX; x <= hiX; x++ {
		fx := float64(x)
		lo, hi := math.Inf(1), math.Inf(-1)
		found := false
		for i := 0; i < edges; i++ {
			a, b := h.Vertices[i], h.Vertices[(i+1)%n]
			elo, ehi := a.X, b.X
			if elo > ehi {
				elo, ehi = ehi, elo
			}
			if fx < elo-1e-9 || fx > ehi+1e-9 {
				continue
			}
			if math.Abs(b.X-a.X) < 1e-12 {
				// Vertical edge: the whole y-span intersects.
				lo = math.Min(lo, math.Min(a.Y, b.Y))
				hi = math.Max(hi, math.Max(a.Y, b.Y))
				found = true
				continue
			}
			t := (fx - a.X) / (b.X - a.X)
			y := a.Y + t*(b.Y-a.Y)
			lo = math.Min(lo, y)
			hi = math.Max(hi, y)
			found = true
		}
		if found {
			emit(x, lo, hi)
		}
	}
}

// Centroid returns the arithmetic mean of the hull vertices (adequate for
// reporting; not the area centroid).
func (h Hull) Centroid() Point {
	if len(h.Vertices) == 0 {
		return Point{}
	}
	var cx, cy float64
	for _, v := range h.Vertices {
		cx += v.X
		cy += v.Y
	}
	n := float64(len(h.Vertices))
	return Point{cx / n, cy / n}
}

func distToSegment(p, a, b Point) float64 {
	ab := b.Sub(a)
	ap := p.Sub(a)
	den := ab.X*ab.X + ab.Y*ab.Y
	if den == 0 {
		return p.Dist(a)
	}
	t := (ap.X*ab.X + ap.Y*ab.Y) / den
	t = math.Max(0, math.Min(1, t))
	proj := Point{a.X + t*ab.X, a.Y + t*ab.Y}
	return p.Dist(proj)
}
