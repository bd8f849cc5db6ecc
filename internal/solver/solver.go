// Package solver contains the constraint-solving core that replaces the
// paper's Z3 encoding (DESIGN.md §1). The attack-schedule synthesis of
// Section IV-C is a windowed optimisation: within a horizon of I slots,
// choose a zone assignment per occupant per slot that maximises energy cost
// subject to the ADM's convex-hull stay constraints (Eqs 17-20).
//
// Two engines solve the same window problem:
//
//   - OptimizeWindow: an exact dynamic program over (slot, zone, arrival)
//     states — polynomial, used for the month-scale evaluations. It runs
//     either against the general Oracle interface or, on the attack
//     planner's hot path, directly against a tabulated StayBands oracle
//     (OptimizeWindowBands) with no per-query dispatch.
//   - BranchAndBound: an exhaustive joint search with optional bound
//     pruning — exponential in the horizon, mirroring the paper's SMT
//     solving profile; it powers the Fig 11 scalability study and
//     cross-validates the DP on small windows.
package solver

import (
	"errors"
	"math"

	"github.com/acyd-lab/shatter/internal/home"
)

// Oracle answers the ADM stay queries the schedule constraints reference.
// (*adm.Model satisfies this interface.)
type Oracle interface {
	// MaxStay returns the longest stealthy stay for the arrival time;
	// ok=false when the arrival time itself is outside every cluster.
	MaxStay(occupant int, zone home.ZoneID, arrivalSlot int) (int, bool)
	// InRangeStay reports whether exiting after stayMinutes is stealthy.
	InRangeStay(occupant int, zone home.ZoneID, arrivalSlot, stayMinutes int) bool
}

// CostFn values one occupant-slot: the surrogate marginal cost of the
// occupant being reported in zone z during absolute slot t.
type CostFn func(slot int, zone home.ZoneID) float64

// AllowedFn reports whether the attacker may report zone z at slot t
// (capability constraints: sensor access, forced truth-telling).
type AllowedFn func(slot int, zone home.ZoneID) bool

// Window is one occupant's scheduling problem over [StartSlot,
// StartSlot+Length).
type Window struct {
	Occupant int
	// StartSlot is the absolute minute-of-day at the window start.
	StartSlot int
	// Length is the horizon I.
	Length int
	// StartZone and StartArrival describe the in-progress stay at the
	// window boundary (StartArrival ≤ StartSlot).
	StartZone    home.ZoneID
	StartArrival int
	// Zones enumerates the reportable zones (including Outside).
	Zones []home.ZoneID
	// TerminalOK, when non-nil, restricts acceptable end states: the
	// schedule must finish in a (zone, arrival) state passing the check.
	// The attack planner uses it on each day's final window so the
	// midnight-cut episode stays within an ADM cluster.
	TerminalOK func(zone home.ZoneID, arrival int) bool
	// TerminalBonus, when non-nil, adds a lookahead value to terminal
	// states — the attack planner scores how much reward the in-progress
	// stay can still earn in the next window, which counters the myopia of
	// chained fixed-horizon optimisation (Section IV-C notes the window
	// trade-off).
	TerminalBonus func(zone home.ZoneID, arrival int) float64
}

// Schedule is a solved window.
type Schedule struct {
	// Zones[i] is the reported zone during slot StartSlot+i. When the
	// window was solved through a caller-supplied Workspace, the slice is
	// backed by that workspace and valid only until its next
	// OptimizeWindowWS/OptimizeWindowBands call — chained solvers consume
	// it before solving the next window.
	Zones []home.ZoneID
	// EndZone and EndArrival carry the stay state into the next window.
	EndZone    home.ZoneID
	EndArrival int
	// Value is the surrogate objective achieved.
	Value float64
	// Feasible is false when no ADM-consistent schedule existed and the
	// solver fell back to holding the start zone.
	Feasible bool
}

// Stats reports solver effort for the scalability study.
type Stats struct {
	// NodesExpanded counts state expansions (DP) or search-tree nodes
	// (branch and bound).
	NodesExpanded int
}

// ErrBadWindow rejects malformed windows.
var ErrBadWindow = errors.New("solver: window needs Length >= 1, Zones, and StartArrival <= StartSlot")

func (w Window) validate() error {
	if w.Length < 1 || len(w.Zones) == 0 || w.StartArrival > w.StartSlot {
		return ErrBadWindow
	}
	return nil
}

// Workspace holds the DP state tables for OptimizeWindow so chained window
// optimisations (the attack planner solves ~144 windows per occupant-day)
// reuse one allocation instead of rebuilding the tables per call. Cells are
// epoch-stamped: starting a window bumps the epoch instead of refilling the
// value table with -inf, so a solve touches only the states it actually
// reaches. A zero Workspace is ready to use; it grows to the largest window
// seen. Not safe for concurrent use — give each goroutine its own.
type Workspace struct {
	value  []float64
	choice []int32
	stamp  []uint32
	epoch  uint32
	zones  []home.ZoneID
	rows   []bandRow
	// front lists the live cells of the layer being expanded, as
	// layer-local indices z·nA + a; next collects the cells that stay into
	// the layer being filled.
	front, next []int32
}

// ensure sizes the flattened (t, z, a) tables and opens a new epoch; every
// cell whose stamp predates the epoch reads as unset (-inf).
func (ws *Workspace) ensure(cells int) {
	if cap(ws.value) < cells {
		ws.value = make([]float64, cells)
		ws.choice = make([]int32, cells)
		ws.stamp = make([]uint32, cells)
		ws.epoch = 0
	}
	ws.value = ws.value[:cells]
	ws.choice = ws.choice[:cells]
	ws.stamp = ws.stamp[:cells]
	ws.epoch++
	if ws.epoch == 0 {
		// Stamp wrap-around (once per 2³² windows): old stamps could alias
		// the restarted epoch, so clear them and start over.
		s := ws.stamp[:cap(ws.stamp)]
		for i := range s {
			s[i] = 0
		}
		ws.epoch = 1
	}
}

// zonesBuf returns the reusable Schedule.Zones backing array.
func (ws *Workspace) zonesBuf(n int) []home.ZoneID {
	if cap(ws.zones) < n {
		ws.zones = make([]home.ZoneID, n)
	}
	return ws.zones[:n]
}

// bandRowsBuf returns the reusable per-window zone→table-row scratch used
// by the tabulated-oracle pass.
func (ws *Workspace) bandRowsBuf(n int) []bandRow {
	if cap(ws.rows) < n {
		ws.rows = make([]bandRow, n)
	}
	return ws.rows[:n]
}

// frontiers returns the two empty live-cell lists, each able to hold a
// whole layer of n cells without growing.
func (ws *Workspace) frontiers(n int) (front, next []int32) {
	if cap(ws.front) < n {
		ws.front = make([]int32, 0, n)
		ws.next = make([]int32, 0, n)
	}
	return ws.front[:0], ws.next[:0]
}

// set records an improved value for cell i under the current epoch.
func (ws *Workspace) set(i int, v float64, c int32) {
	ws.value[i] = v
	ws.choice[i] = c
	ws.stamp[i] = ws.epoch
}

// relax offers value v with choice c to cell i: an unset cell takes it, a
// live one only when v is strictly greater, so among equal values the
// first offer wins.
func (ws *Workspace) relax(i int, v float64, c int32) {
	if !ws.live(i) || v > ws.value[i] {
		ws.set(i, v, c)
	}
}

// live reports whether cell i holds a value for the current window.
func (ws *Workspace) live(i int) bool { return ws.stamp[i] == ws.epoch }

// dp carries one window solve's indexing state, shared between the two
// forward-pass variants (interface oracle and tabulated bands) and the
// common terminal selection/reconstruction.
type dp struct {
	ws      *Workspace
	w       Window
	nZ, nA  int
	startZI int
}

const (
	actStay = 0
	actMove = 1
)

// start validates the window, opens a workspace epoch, and seeds the start
// state.
func (d *dp) start(ws *Workspace, w Window) error {
	if err := w.validate(); err != nil {
		return err
	}
	d.ws, d.w = ws, w
	d.nA = w.Length + 1
	d.nZ = len(w.Zones)
	d.startZI = -1
	for i, z := range w.Zones {
		if z == w.StartZone {
			d.startZI = i
			break
		}
	}
	if d.startZI < 0 {
		return errors.New("solver: StartZone not in Zones")
	}
	// value[(t*nZ+z)*nA+a]: best cost over slots [0, t) ending in state
	// (z, a) before slot t; choice encodes the predecessor (z, a) and action.
	ws.ensure((w.Length + 1) * d.nZ * d.nA)
	ws.set(d.idx(0, d.startZI, 0), 0, -1)
	return nil
}

// arrivalSlot maps arrival index 0 to StartArrival and 1+i to arrival at
// StartSlot+i.
func (d *dp) arrivalSlot(aIdx int) int {
	if aIdx == 0 {
		return d.w.StartArrival
	}
	return d.w.StartSlot + aIdx - 1
}

func (d *dp) idx(t, z, a int) int { return (t*d.nZ+z)*d.nA + a }

func (d *dp) encode(z, a, action int) int32 { return int32(action*d.nZ*d.nA + z*d.nA + a) }

func (d *dp) decode(c int32) (z, a int) {
	rem := int(c) % (d.nZ * d.nA)
	return rem / d.nA, rem % d.nA
}

// liveCells lists layer t's live cells in ascending (z, a) order by a dense
// scan of the layer.
func (d *dp) liveCells(t int) []int32 {
	n := d.nZ * d.nA
	cells, _ := d.ws.frontiers(n)
	for c := 0; c < n; c++ {
		if d.ws.live(t*n + c) {
			cells = append(cells, int32(c))
		}
	}
	return cells
}

// finish picks the best terminal state among the final layer's live cells,
// given in ascending (z, a) order (scored with the lookahead bonus, which is
// excluded from the reported Value) and reconstructs the schedule into the
// workspace's zones buffer.
func (d *dp) finish(st Stats, terminals []int32) (Schedule, Stats, error) {
	w, ws := d.w, d.ws
	negInf := math.Inf(-1)
	bestV, bestScore, bestZ, bestA := negInf, negInf, -1, -1
	for _, c := range terminals {
		z, a := int(c)/d.nA, int(c)%d.nA
		tv := ws.value[d.idx(w.Length, z, a)]
		if w.TerminalOK != nil && !w.TerminalOK(w.Zones[z], d.arrivalSlot(a)) {
			continue
		}
		score := tv
		if w.TerminalBonus != nil {
			score += w.TerminalBonus(w.Zones[z], d.arrivalSlot(a))
		}
		if score > bestScore {
			bestScore = score
			bestV, bestZ, bestA = tv, z, a
		}
	}
	zones := ws.zonesBuf(w.Length)
	if bestZ < 0 {
		// No feasible schedule: hold the start zone (flagged infeasible).
		for i := range zones {
			zones[i] = w.StartZone
		}
		return Schedule{
			Zones:      zones,
			EndZone:    w.StartZone,
			EndArrival: w.StartArrival,
			Feasible:   false,
		}, st, nil
	}
	// Reconstruct.
	z, a := bestZ, bestA
	for t := w.Length; t > 0; t-- {
		zones[t-1] = w.Zones[z]
		z, a = d.decode(ws.choice[d.idx(t, z, a)])
	}
	return Schedule{
		Zones:      zones,
		EndZone:    w.Zones[bestZ],
		EndArrival: d.arrivalSlot(bestA),
		Value:      bestV,
		Feasible:   true,
	}, st, nil
}

// OptimizeWindow solves the window with an exact dynamic program, allocating
// fresh DP state. Hot paths that solve many windows should use
// OptimizeWindowWS with a reused Workspace (or OptimizeWindowBands against a
// tabulated oracle).
func OptimizeWindow(w Window, oracle Oracle, cost CostFn, allowed AllowedFn) (Schedule, Stats, error) {
	var ws Workspace
	return OptimizeWindowWS(&ws, w, oracle, cost, allowed)
}

// OptimizeWindowWS solves the window with an exact dynamic program using the
// given workspace's state tables. It scans every (z, a) cell of each layer
// for live states — the dense form OptimizeWindowBands is checked against.
//
// State: before slot t the occupant is in zone z having arrived at a.
// Actions: stay (duration stays within MaxStay(a, z)) or exit (requires
// InRangeStay(a, t−a)) into a zone z' that is allowed at t and has cluster
// coverage at arrival t.
func OptimizeWindowWS(ws *Workspace, w Window, oracle Oracle, cost CostFn, allowed AllowedFn) (Schedule, Stats, error) {
	var d dp
	if err := d.start(ws, w); err != nil {
		return Schedule{}, Stats{}, err
	}
	var st Stats

	// startLenient: the inherited stay may itself lack cluster coverage
	// (real behaviour can be anomalous). The attacker then reports truth
	// until the next natural transition; model this by allowing both stay
	// and exit from an uncovered start state.
	_, startCovered := oracle.MaxStay(w.Occupant, w.StartZone, w.StartArrival)

	for t := 0; t < w.Length; t++ {
		abs := w.StartSlot + t
		for z := 0; z < d.nZ; z++ {
			// Arrival index a first appears in layer a (a move at step
			// a−1), so indices above t cannot be live at step t.
			for a := 0; a <= t; a++ {
				i := d.idx(t, z, a)
				if !ws.live(i) {
					continue
				}
				v := ws.value[i]
				st.NodesExpanded++
				zone := w.Zones[z]
				arr := d.arrivalSlot(a)
				dur := abs - arr // completed stay so far
				// Action 1: stay for slot t (new duration dur+1).
				maxStay, covered := oracle.MaxStay(w.Occupant, zone, arr)
				canStay := false
				switch {
				case covered:
					canStay = dur+1 <= maxStay
				case z == d.startZI && a == 0 && !startCovered:
					canStay = true // lenient inherited stay
				}
				if canStay && allowed(abs, zone) {
					ws.relax(d.idx(t+1, z, a), v+cost(abs, zone), d.encode(z, a, actStay))
				}
				// Action 2: exit now (stay = dur) and occupy z' for slot t.
				exitOK := oracle.InRangeStay(w.Occupant, zone, arr, dur)
				if z == d.startZI && a == 0 && !startCovered {
					exitOK = true
				}
				if !exitOK || dur < 1 {
					continue
				}
				for z2 := 0; z2 < d.nZ; z2++ {
					if z2 == z {
						continue
					}
					zone2 := w.Zones[z2]
					if !allowed(abs, zone2) {
						continue
					}
					// The new arrival must have cluster coverage so the
					// occupant can eventually exit stealthily.
					if _, ok := oracle.MaxStay(w.Occupant, zone2, abs); !ok {
						continue
					}
					aIdx := t + 1 // arrival at abs
					ws.relax(d.idx(t+1, z2, aIdx), v+cost(abs, zone2), d.encode(z, a, actMove))
				}
			}
		}
	}
	return d.finish(st, d.liveCells(w.Length))
}
