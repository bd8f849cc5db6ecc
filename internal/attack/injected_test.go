package attack

import (
	"testing"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/rng"
)

// naturalSetRule is the reference for Injected: a map of the actual
// stream's (zone, arrival, duration) triples for one occupant-day, and a
// reported episode is injected when its triple is absent.
func naturalSetRule(truth []aras.Episode) func(aras.Episode) bool {
	natural := make(map[[3]int]bool, len(truth))
	for _, e := range truth {
		natural[[3]int{int(e.Zone), e.ArrivalSlot, e.Duration}] = true
	}
	return func(e aras.Episode) bool {
		return !natural[[3]int{int(e.Zone), e.ArrivalSlot, e.Duration}]
	}
}

// TestInjectedMatchesNaturalSetRule pins the one injection rule to the
// natural-set reference: on every reported episode of SHATTER and BIoTA
// campaigns, and on random probes that match a truth episode exactly or
// differ from one in a single field.
func TestInjectedMatchesNaturalSetRule(t *testing.T) {
	f := newFixture(t, "A", 6)
	pl := f.planner(Full(f.trace.House))
	checked, injected := 0, 0
	for _, plan := range []func() (*Plan, error){pl.PlanSHATTER, pl.PlanBIoTA} {
		p, err := plan()
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d < f.trace.NumDays(); d++ {
			for o := range f.trace.House.Occupants {
				rule := naturalSetRule(f.trace.DayEpisodes(d, o))
				for _, e := range p.DayReportedEpisodes(f.trace, d, o) {
					if want := rule(e.Episode); e.Injected != want {
						t.Fatalf("%s day %d occupant %d: %+v labelled injected=%v, reference %v", p.Strategy, d, o, e.Episode, e.Injected, want)
					}
					checked++
					if e.Injected {
						injected++
					}
				}
			}
		}
	}
	if injected == 0 || injected == checked {
		t.Fatalf("campaigns give %d injected of %d episodes; the comparison needs both labels", injected, checked)
	}

	r := rng.New(5)
	for trial := 0; trial < 300; trial++ {
		d, o := r.Intn(f.trace.NumDays()), r.Intn(len(f.trace.House.Occupants))
		truth := f.trace.DayEpisodes(d, o)
		rule := naturalSetRule(truth)
		probe := truth[r.Intn(len(truth))]
		switch r.Intn(4) {
		case 1:
			probe.Zone = home.ZoneID(r.Intn(len(f.trace.House.Zones)))
		case 2:
			probe.Duration += 1 - 2*r.Intn(2)
		case 3:
			probe.ArrivalSlot += 1 - 2*r.Intn(2)
		}
		if got, want := Injected(probe, truth), rule(probe); got != want {
			t.Fatalf("trial %d: %+v injected=%v, reference %v", trial, probe, got, want)
		}
	}
}

// TestInjectedIsPerOccupant: a reported stay identical to another
// occupant's real stay is still an injection, because each occupant's
// report is checked against that occupant's own truth.
func TestInjectedIsPerOccupant(t *testing.T) {
	f := newFixture(t, "A", 2)
	other := f.trace.DayEpisodes(0, 1)
	own := f.trace.DayEpisodes(0, 0)
	ownRule := naturalSetRule(own)
	for _, e := range other {
		if !ownRule(e) {
			continue // occupant 0 happens to share this exact stay
		}
		e.Occupant = 0
		if !Injected(e, own) {
			t.Fatalf("occupant 0 reporting occupant 1's stay %+v is not labelled injected", e)
		}
		return
	}
	t.Fatal("fixture has no occupant-1 stay absent from occupant 0's truth")
}
