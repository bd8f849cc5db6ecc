package adm

import (
	"reflect"
	"sync"
	"testing"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/geometry"
	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/solver"
)

// geometryWithin is the direct hull-membership reference for WithinCluster.
func geometryWithin(m *Model, occupant int, zone home.ZoneID, arrival, stay int) bool {
	return hullsContain(m.hulls[key{occupant: occupant, zone: zone}], arrival, stay)
}

// geometryStayRange is the direct hull-geometry reference for StayRange.
func geometryStayRange(m *Model, occupant int, zone home.ZoneID, arrival int) (int, int, bool) {
	return hullStayRange(m.hulls[key{occupant: occupant, zone: zone}], arrival)
}

// TestMemoMatchesGeometry asserts the Model's tabulated stay queries agree
// with the direct hull geometry across the integer query surface the attack
// solver exercises.
func TestMemoMatchesGeometry(t *testing.T) {
	for _, alg := range []Algorithm{DBSCAN, KMeans} {
		m, _ := trainedModel(t, alg, 20)
		for o := 0; o < 2; o++ {
			for z := home.ZoneID(0); z < home.NumZones; z++ {
				for arr := 0; arr < aras.SlotsPerDay; arr += 7 {
					gMin, gMax, gOK := geometryStayRange(m, o, z, arr)
					mMin, mMax, mOK := m.StayRange(o, z, arr)
					if gOK != mOK || gMin != mMin || gMax != mMax {
						t.Fatalf("%v o=%d z=%v arr=%d: StayRange table (%d,%d,%v) != geometry (%d,%d,%v)",
							alg, o, z, arr, mMin, mMax, mOK, gMin, gMax, gOK)
					}
					if !gOK {
						continue
					}
					for _, stay := range []int{0, 1, gMin - 1, gMin, (gMin + gMax) / 2, gMax, gMax + 1, gMax + 60} {
						if stay < 0 {
							continue
						}
						if got, want := m.WithinCluster(o, z, arr, stay), geometryWithin(m, o, z, arr, stay); got != want {
							t.Fatalf("%v o=%d z=%v arr=%d stay=%d: table %v != geometry %v",
								alg, o, z, arr, stay, got, want)
						}
					}
				}
			}
		}
	}
}

// TestMemoOutOfRangeArrival checks the geometry fallback for arrivals
// outside the stay table's day range.
func TestMemoOutOfRangeArrival(t *testing.T) {
	m, _ := trainedModel(t, KMeans, 20)
	if _, _, ok := m.StayRange(0, home.Bedroom, -5); ok {
		t.Error("negative arrival should be uncovered")
	}
	if _, _, ok := m.StayRange(0, home.Bedroom, aras.SlotsPerDay+100); ok {
		t.Error("past-midnight arrival should be uncovered")
	}
}

// TestStayBandsMatchModel is the stay table's oracle test: since the Model
// answers in-day queries from its StayBands, every cell is held to the
// direct hull geometry over the whole in-day surface — every occupant, zone
// and arrival slot, with coverage, stay-range bounds and gap-aware in-range
// decisions at and around the bounds. The surface includes zones an
// occupant has no hull in and arrivals outside a zone's covered span (the
// table stores neither), and the test requires both to occur.
func TestStayBandsMatchModel(t *testing.T) {
	for _, alg := range []Algorithm{DBSCAN, KMeans} {
		m, tr := trainedModel(t, alg, 20)
		noHull, outsideSpan := 0, 0
		for o := range tr.House.Occupants {
			b := m.StayBands(o)
			if b == nil {
				t.Fatalf("%v: no bands for occupant %d", alg, o)
			}
			for z := home.ZoneID(0); int(z) < len(tr.House.Zones); z++ {
				if len(m.hulls[key{occupant: o, zone: z}]) == 0 {
					noHull++
				}
				// The zone's span: its first and last covered arrival.
				first, last := aras.SlotsPerDay, -1
				for arr := 0; arr < aras.SlotsPerDay; arr++ {
					if _, _, ok := geometryStayRange(m, o, z, arr); ok {
						first, last = min(first, arr), arr
					}
				}
				for arr := 0; arr < aras.SlotsPerDay; arr++ {
					if arr < first || arr > last {
						outsideSpan++
						if _, _, ok := m.StayRange(o, z, arr); ok || b.InRange(z, arr, 0) {
							t.Fatalf("%v o=%d z=%v arr=%d: arrival outside the span [%d, %d] reads covered", alg, o, z, arr, first, last)
						}
					}
					wantMin, wantMax, wantOK := geometryStayRange(m, o, z, arr)
					gotMax, gotOK := b.MaxStayAt(z, arr)
					gotMin, _ := b.MinStayAt(z, arr)
					if gotOK != wantOK || (wantOK && (gotMin != wantMin || gotMax != wantMax)) {
						t.Fatalf("%v o=%d z=%v arr=%d: bands (%d,%d,%v) != geometry (%d,%d,%v)",
							alg, o, z, arr, gotMin, gotMax, gotOK, wantMin, wantMax, wantOK)
					}
					for _, stay := range []int{0, 1, wantMin - 1, wantMin, (wantMin + wantMax) / 2, wantMax, wantMax + 1, wantMax + 45} {
						if stay < 0 {
							continue
						}
						if got, want := b.InRange(z, arr, stay), geometryWithin(m, o, z, arr, stay); got != want {
							t.Fatalf("%v o=%d z=%v arr=%d stay=%d: bands InRange %v != geometry %v",
								alg, o, z, arr, stay, got, want)
						}
					}
				}
			}
		}
		if noHull == 0 || outsideSpan == 0 {
			t.Fatalf("%v: %d rows without a hull and %d arrivals outside a span; the test needs both", alg, noHull, outsideSpan)
		}
	}
	m, _ := trainedModel(t, KMeans, 12)
	if m.StayBands(-1) != nil || m.StayBands(99) != nil {
		t.Error("out-of-range occupants should have nil bands")
	}
}

// TestInDayQueriesReadTheTable holds the Model's query routing: an in-day
// arrival is answered by the stay table alone, a zone or arrival the table
// does not cover included, and only an arrival beyond the day falls back to
// hull geometry. A hull added after training covers the whole plane; the
// table, built from the trained hulls, must not see it.
func TestInDayQueriesReadTheTable(t *testing.T) {
	m, tr := trainedModel(t, DBSCAN, 12)
	o, z := -1, home.ZoneID(-1)
	for oc := range tr.House.Occupants {
		for zc := home.ZoneID(0); int(zc) < len(tr.House.Zones); zc++ {
			if len(m.hulls[key{occupant: oc, zone: zc}]) == 0 {
				o, z = oc, zc
			}
		}
	}
	if o < 0 {
		t.Fatal("every (occupant, zone) row has a hull; the test needs one without")
	}
	everywhere, err := geometry.ConvexHull([]geometry.Point{{X: -100, Y: 0}, {X: 2000, Y: 0}, {X: 2000, Y: 5000}, {X: -100, Y: 5000}})
	if err != nil {
		t.Fatal(err)
	}
	m.hulls[key{occupant: o, zone: z}] = []geometry.Hull{everywhere}
	for _, arr := range []int{0, 1, 700, aras.SlotsPerDay - 1} {
		if _, _, ok := m.StayRange(o, z, arr); ok || m.WithinCluster(o, z, arr, 10) {
			t.Errorf("o=%d z=%v arrival %d: in-day query fell through to hull geometry", o, z, arr)
		}
	}
	for _, arr := range []int{-5, aras.SlotsPerDay + 5} {
		if _, _, ok := m.StayRange(o, z, arr); !ok || !m.WithinCluster(o, z, arr, 10) {
			t.Errorf("o=%d z=%v arrival %d: out-of-day query did not reach hull geometry", o, z, arr)
		}
	}
}

// TestBandsDPMatchesModelDP cross-validates the solver's tabulated-oracle
// pass against the interface pass on a real trained model: the planner's
// window problem must produce identical schedules either way.
func TestBandsDPMatchesModelDP(t *testing.T) {
	m, tr := trainedModel(t, KMeans, 20)
	zones := make([]home.ZoneID, len(tr.House.Zones))
	for i := range zones {
		zones[i] = home.ZoneID(i)
	}
	cost := func(slot int, z home.ZoneID) float64 {
		if !z.Conditioned() {
			return 0
		}
		return float64(int(z)*7%5) + float64(slot%13)/13
	}
	allowed := func(int, home.ZoneID) bool { return true }
	var wsA, wsB solver.Workspace
	for o := range tr.House.Occupants {
		b := m.StayBands(o)
		for start := 0; start+10 <= aras.SlotsPerDay; start += 97 {
			w := solver.Window{
				Occupant:  o,
				StartSlot: start, Length: 10,
				StartZone: home.Bedroom, StartArrival: start,
				Zones: zones,
			}
			sa, sta, errA := solver.OptimizeWindowWS(&wsA, w, m, cost, allowed)
			sb, stb, errB := solver.OptimizeWindowBands(&wsB, w, b, cost, allowed)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("o=%d start=%d: error mismatch %v vs %v", o, start, errA, errB)
			}
			if errA != nil {
				continue
			}
			if sta != stb || sa.Feasible != sb.Feasible || sa.Value != sb.Value ||
				sa.EndZone != sb.EndZone || sa.EndArrival != sb.EndArrival ||
				!reflect.DeepEqual(sa.Zones, sb.Zones) {
				t.Fatalf("o=%d start=%d: band DP diverges from model DP:\nmodel: %+v %+v\nbands: %+v %+v",
					o, start, sa, sta, sb, stb)
			}
		}
	}
}

// TestModelConcurrentQueries shares one trained Model, and so its stay
// tables, among 8 goroutines: each walks the query surface (StayRange,
// EpisodeAnomalous and the StayBands reads, beyond-the-day arrivals
// included) and every answer must equal a sequential reference taken
// first. Run under -race it checks that the table is read-only after Train.
func TestModelConcurrentQueries(t *testing.T) {
	m, tr := trainedModel(t, DBSCAN, 12)
	type answer struct {
		minStay, maxStay int
		ok, anomalous    bool
		bandMax          int
		bandOK, inRange  bool
	}
	query := func(o int, z home.ZoneID, arr int) answer {
		var a answer
		a.minStay, a.maxStay, a.ok = m.StayRange(o, z, arr)
		a.anomalous = m.EpisodeAnomalous(aras.Episode{Occupant: o, Zone: z, ArrivalSlot: arr, Duration: a.maxStay})
		b := m.StayBands(o)
		a.bandMax, a.bandOK = b.MaxStayAt(z, arr)
		a.inRange = b.InRange(z, arr, a.minStay)
		return a
	}
	type probe struct {
		o   int
		z   home.ZoneID
		arr int
	}
	var probes []probe
	for o := range tr.House.Occupants {
		for z := home.ZoneID(0); int(z) < len(tr.House.Zones); z++ {
			for arr := -3; arr < aras.SlotsPerDay+3; arr += 5 {
				probes = append(probes, probe{o, z, arr})
			}
		}
	}
	want := make([]answer, len(probes))
	for i, p := range probes {
		want[i] = query(p.o, p.z, p.arr)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine starts at a different probe, so reads of one
			// cell overlap across goroutines.
			for k := range probes {
				i := (k + g*len(probes)/8) % len(probes)
				if got := query(probes[i].o, probes[i].z, probes[i].arr); got != want[i] {
					t.Errorf("goroutine %d probe %+v: %+v, sequential %+v", g, probes[i], got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
