package solver

import (
	"math"
	"reflect"
	"testing"

	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/rng"
)

// bandsFromMap tabulates a mapOracle over nSlots arrival slots so the
// specialized band pass can be cross-validated against the interface pass
// on identical stay semantics.
func bandsFromMap(o mapOracle, nZones, nSlots int) *StayBands {
	return NewStayBands(nZones, nSlots, 1e-9, func(z home.ZoneID, add func(int, float64, float64)) {
		if band, ok := o[z]; ok {
			for t := 0; t < nSlots; t++ {
				add(t, float64(band[0]), float64(band[1]))
			}
		}
	})
}

// TestBandsQueriesMatchOracle locks the StayBands accessors to the oracle
// they tabulate.
func TestBandsQueriesMatchOracle(t *testing.T) {
	oracle := mapOracle{
		home.Outside:    {1, 600},
		home.Bedroom:    {2, 14},
		home.Kitchen:    {3, 7},
		home.Livingroom: {2, 25},
	}
	b := bandsFromMap(oracle, len(allZones), 300)
	for _, z := range allZones {
		for arr := 0; arr < 300; arr += 13 {
			wantMax, wantOK := oracle.MaxStay(0, z, arr)
			gotMax, gotOK := b.MaxStayAt(z, arr)
			if gotOK != wantOK || (wantOK && gotMax != wantMax) {
				t.Fatalf("z=%v arr=%d: MaxStayAt (%d,%v) != oracle (%d,%v)", z, arr, gotMax, gotOK, wantMax, wantOK)
			}
			for stay := 0; stay < 30; stay++ {
				if got, want := b.InRange(z, arr, stay), oracle.InRangeStay(0, z, arr, stay); got != want {
					t.Fatalf("z=%v arr=%d stay=%d: InRange %v != oracle %v", z, arr, stay, got, want)
				}
			}
		}
	}
	// Out-of-table queries read as uncovered, never panic.
	if _, ok := b.MaxStayAt(home.Bedroom, -1); ok {
		t.Error("negative arrival should be uncovered")
	}
	if _, ok := b.MaxStayAt(home.Bedroom, 300); ok {
		t.Error("past-table arrival should be uncovered")
	}
	if _, ok := b.MaxStayAt(home.ZoneID(99), 10); ok {
		t.Error("zone beyond the table should be uncovered")
	}
	if b.InRange(home.ZoneID(99), 10, 5) {
		t.Error("zone beyond the table should never be in range")
	}
}

// TestStayBandsStoreOnlySpans holds the table to its information size: a
// zone without an interval stores no cell, a zone's cells run from its
// first to its last covered arrival (gaps inside the span included), and
// each cell stores its own intervals once. Inside a span a gap reads as
// uncovered, as do arrivals on either side of it.
func TestStayBandsStoreOnlySpans(t *testing.T) {
	const slots = 1440
	b := NewStayBands(4, slots, 1e-9, func(z home.ZoneID, add func(int, float64, float64)) {
		switch z {
		case 1: // two clusters with a gap, reported out of arrival order
			for a := 300; a < 310; a++ {
				add(a, 5, 9)
			}
			for a := 100; a < 160; a++ {
				add(a, 2, 30)
			}
		case 2: // the day's last slot only; out-of-day arrivals are dropped
			add(slots-1, 1, 2)
			add(-1, 1, 2)
			add(slots, 1, 2)
		case 3: // two intervals on one cell
			add(0, 1, 3)
			add(0, 10, 12)
		}
	})
	if r := b.rows[0]; r.lo != r.hi {
		t.Errorf("zone without an interval has span [%d, %d)", r.lo, r.hi)
	}
	const cells = (310 - 100) + 1 + 1
	if len(b.minStay) != cells || len(b.maxStay) != cells || len(b.ivOff) != cells+1 {
		t.Errorf("table holds %d/%d stay cells and %d offsets, want %d cells", len(b.minStay), len(b.maxStay), len(b.ivOff), cells)
	}
	if got, want := len(b.ivLo), 10+60+1+2; got != want || len(b.ivHi) != want {
		t.Errorf("table holds %d/%d intervals, want %d", got, len(b.ivHi), want)
	}
	for _, q := range []struct {
		z                home.ZoneID
		arrival          int
		minStay, maxStay int
		ok               bool
	}{
		{0, 0, 0, 0, false}, {0, 700, 0, 0, false},
		{1, 99, 0, 0, false}, {1, 100, 2, 30, true}, {1, 159, 2, 30, true},
		{1, 160, 0, 0, false}, {1, 299, 0, 0, false}, {1, 300, 5, 9, true},
		{1, 309, 5, 9, true}, {1, 310, 0, 0, false}, {1, -1, 0, 0, false},
		{2, slots - 2, 0, 0, false}, {2, slots - 1, 1, 2, true}, {2, slots, 0, 0, false},
		{3, 0, 1, 12, true}, {3, 1, 0, 0, false}, {4, 0, 0, 0, false}, {-1, 0, 0, 0, false},
	} {
		minStay, maxStay, ok := b.StayRangeAt(q.z, q.arrival)
		if minStay != q.minStay || maxStay != q.maxStay || ok != q.ok {
			t.Errorf("zone %d arrival %d: StayRangeAt (%d, %d, %v), want (%d, %d, %v)",
				q.z, q.arrival, minStay, maxStay, ok, q.minStay, q.maxStay, q.ok)
		}
		if gotMax, gotOK := b.MaxStayAt(q.z, q.arrival); gotMax != q.maxStay || gotOK != q.ok {
			t.Errorf("zone %d arrival %d: MaxStayAt (%d, %v)", q.z, q.arrival, gotMax, gotOK)
		}
		if gotMin, gotOK := b.MinStayAt(q.z, q.arrival); gotMin != q.minStay || gotOK != q.ok {
			t.Errorf("zone %d arrival %d: MinStayAt (%d, %v)", q.z, q.arrival, gotMin, gotOK)
		}
	}
	// The gap between zone 3's two intervals is not stealthy.
	for stay, want := range map[int]bool{0: false, 1: true, 3: true, 4: false, 9: false, 10: true, 12: true, 13: false} {
		if got := b.InRange(3, 0, stay); got != want {
			t.Errorf("zone 3 arrival 0 stay %d: InRange %v, want %v", stay, got, want)
		}
	}
	// A zone covered at every arrival costs a cell per slot.
	full := bandsFromMap(mapOracle{home.Outside: {1, 600}, home.Bedroom: {2, 14}}, len(allZones), slots)
	if got, want := len(full.minStay), 2*slots; got != want {
		t.Errorf("two full rows hold %d cells, want %d", got, want)
	}
}

// TestBandsDPMatchesOracleDP is the lock between the two forward passes:
// over randomized stay bands, windows, and capabilities, OptimizeWindowBands
// must reproduce OptimizeWindowWS exactly — value, feasibility, schedule,
// end state, and node count. Cost and the capability vary by slot as well
// as by zone, so a pass that reads the wrong slot diverges. Every other
// trial draws costs from {0, 1, 2}, so equal-valued paths meet at almost
// every state: a frontier that expands live states in any order but the
// dense scan's resolves those ties differently and diverges.
func TestBandsDPMatchesOracleDP(t *testing.T) {
	r := rng.New(42)
	const nSlots = 400
	var wsA, wsB Workspace
	for trial := 0; trial < 200; trial++ {
		ties := trial%2 == 1
		oracle := mapOracle{}
		for _, z := range allZones {
			if r.Intn(6) == 0 && z != home.Outside {
				continue // leave the zone uncovered
			}
			lo := 1 + r.Intn(3)
			oracle[z] = [2]int{lo, lo + r.Intn(25)}
		}
		costTbl := map[home.ZoneID]float64{}
		for _, z := range allZones {
			costTbl[z] = r.Range(0, 10)
		}
		// slotCost[slot][z] and blocked[slot] give every (slot, zone) its
		// own cost and every slot its own inaccessible zone.
		slotCost := make([][]float64, nSlots)
		blocked := make([]home.ZoneID, nSlots)
		for s := range slotCost {
			slotCost[s] = make([]float64, len(allZones))
			for zi := range slotCost[s] {
				if ties {
					slotCost[s][zi] = float64(r.Intn(3))
				} else {
					slotCost[s][zi] = r.Range(0, 10)
				}
			}
			blocked[s] = allZones[r.Intn(len(allZones))]
		}
		cost := func(slot int, z home.ZoneID) float64 { return slotCost[slot][z] }
		allowed := func(slot int, z home.ZoneID) bool { return z != blocked[slot] }
		start := 50 + r.Intn(200)
		w := Window{
			Occupant:     0,
			StartSlot:    start,
			Length:       4 + r.Intn(9),
			StartZone:    allZones[r.Intn(len(allZones))],
			StartArrival: start - r.Intn(8),
			Zones:        allZones,
		}
		if trial%3 == 0 {
			w.TerminalOK = func(z home.ZoneID, arr int) bool { return z != home.Kitchen }
		}
		if trial%4 == 0 {
			w.TerminalBonus = func(z home.ZoneID, arr int) float64 { return costTbl[z] * float64(arr%5) }
		}
		bands := bandsFromMap(oracle, len(allZones), nSlots)
		sa, sta, errA := OptimizeWindowWS(&wsA, w, oracle, cost, allowed)
		sb, stb, errB := OptimizeWindowBands(&wsB, w, bands, cost, allowed)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("trial %d: error mismatch %v vs %v", trial, errA, errB)
		}
		if errA != nil {
			continue
		}
		if sta != stb {
			t.Fatalf("trial %d: stats %+v != %+v", trial, sta, stb)
		}
		if sa.Feasible != sb.Feasible || sa.Value != sb.Value ||
			sa.EndZone != sb.EndZone || sa.EndArrival != sb.EndArrival ||
			!reflect.DeepEqual(sa.Zones, sb.Zones) {
			t.Fatalf("trial %d: schedules diverge:\noracle: %+v\nbands:  %+v", trial, sa, sb)
		}
	}
}

// TestWorkspaceEpochReuse asserts the epoch-stamped workspace gives the
// same answers across a chain of windows of varying sizes as fresh
// workspaces do — stale cells and frontier entries from earlier (including
// larger) windows must never leak into a later solve. Both passes share the
// one workspace.
func TestWorkspaceEpochReuse(t *testing.T) {
	oracle := mapOracle{
		home.Outside:    {1, 600},
		home.Bedroom:    {2, 20},
		home.Livingroom: {2, 30},
		home.Kitchen:    {2, 6},
		home.Bathroom:   {2, 9},
	}
	bands := bandsFromMap(oracle, len(allZones), 1440)
	var shared Workspace
	r := rng.New(7)
	for trial := 0; trial < 25; trial++ {
		start := 100 + r.Intn(500)
		w := Window{
			StartSlot:    start,
			Length:       2 + r.Intn(12), // varying sizes force regrowth and shrink
			StartZone:    home.Bedroom,
			StartArrival: start - 1 - r.Intn(5),
			Zones:        allZones,
		}
		got, _, err := OptimizeWindowWS(&shared, w, oracle, zoneCost, allAllowed)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := OptimizeWindow(w, oracle, zoneCost, allAllowed)
		if err != nil {
			t.Fatal(err)
		}
		if got.Feasible != want.Feasible || math.Abs(got.Value-want.Value) > 1e-12 ||
			!reflect.DeepEqual(got.Zones, want.Zones) {
			t.Fatalf("trial %d: shared workspace diverges: %+v vs %+v", trial, got, want)
		}
		got, _, err = OptimizeWindowBands(&shared, w, bands, zoneCost, allAllowed)
		if err != nil {
			t.Fatal(err)
		}
		if got.Feasible != want.Feasible || got.Value != want.Value ||
			got.EndZone != want.EndZone || got.EndArrival != want.EndArrival ||
			!reflect.DeepEqual(got.Zones, want.Zones) {
			t.Fatalf("trial %d: bands pass on the shared workspace diverges: %+v vs %+v", trial, got, want)
		}
	}
}

// TestWorkspaceEpochWrap forces the uint32 epoch to wrap and checks the
// stamp tables are cleared rather than aliasing stale cells.
func TestWorkspaceEpochWrap(t *testing.T) {
	oracle := mapOracle{home.Bedroom: {1, 30}, home.Kitchen: {2, 8}}
	w := Window{
		StartSlot: 60, Length: 5,
		StartZone: home.Bedroom, StartArrival: 58,
		Zones: allZones,
	}
	var ws Workspace
	if _, _, err := OptimizeWindowWS(&ws, w, oracle, zoneCost, allAllowed); err != nil {
		t.Fatal(err)
	}
	ws.epoch = ^uint32(0) // next ensure wraps
	got, _, err := OptimizeWindowWS(&ws, w, oracle, zoneCost, allAllowed)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := OptimizeWindow(w, oracle, zoneCost, allAllowed)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Value-want.Value) > 1e-12 || !reflect.DeepEqual(got.Zones, want.Zones) {
		t.Fatalf("post-wrap solve diverges: %+v vs %+v", got, want)
	}
}

// TestDPWindowZeroAllocs is the allocation-regression gate for the DP hot
// path: after warm-up, a window solve (both passes) allocates nothing.
func TestDPWindowZeroAllocs(t *testing.T) {
	oracle := mapOracle{
		home.Outside:    {1, 600},
		home.Bedroom:    {2, 20},
		home.Livingroom: {2, 30},
		home.Kitchen:    {2, 6},
		home.Bathroom:   {2, 9},
	}
	bands := bandsFromMap(oracle, len(allZones), 1440)
	w := Window{
		StartSlot: 600, Length: 10,
		StartZone: home.Bedroom, StartArrival: 595,
		Zones: allZones,
	}
	var ws Workspace
	solveOracle := func() {
		if _, _, err := OptimizeWindowWS(&ws, w, oracle, zoneCost, allAllowed); err != nil {
			t.Fatal(err)
		}
	}
	solveBands := func() {
		if _, _, err := OptimizeWindowBands(&ws, w, bands, zoneCost, allAllowed); err != nil {
			t.Fatal(err)
		}
	}
	solveOracle() // warm the workspace
	if allocs := testing.AllocsPerRun(50, solveOracle); allocs != 0 {
		t.Errorf("OptimizeWindowWS: %.1f allocs/window after warm-up, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, solveBands); allocs != 0 {
		t.Errorf("OptimizeWindowBands: %.1f allocs/window after warm-up, want 0", allocs)
	}
}
