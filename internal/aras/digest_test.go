package aras_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/scenario"
)

// digestGenerator returns a generator for one of the two homes the day
// digest covers: paper house A, or the first scenario.SynthFleet home
// (4 zones, 1 occupant).
func digestGenerator(tb testing.TB, synth bool, days int, seed uint64) *aras.Generator {
	tb.Helper()
	house, cfg := home.MustHouse("A"), aras.GeneratorConfig{Days: days, Seed: seed}
	if synth {
		sp := scenario.SynthFleet(1, seed)[0]
		h, err := sp.Build()
		if err != nil {
			tb.Fatal(err)
		}
		house, cfg = h, sp.GeneratorConfig(days, seed)
	}
	g, err := aras.NewGenerator(house, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestDayDigest pins the generator's output bits: a SHA-256 over 3 days of
// every zone, activity, appliance and weather column, for house A and for
// one synthetic home. A change to the sampler or the planner that moves a
// single draw fails here, next to the generator, rather than only through
// the table and fleet goldens downstream.
func TestDayDigest(t *testing.T) {
	for _, tc := range []struct {
		name  string
		synth bool
		want  string
	}{
		{"house A", false, "0afcae4ba5dede1576acafaa58faba2bf40669e353cbfc1508000b756ebfc52a"},
		{"synth", true, "75d4eb140a0b3e94519b6d051bc84f1be199898565d9a84c12d5c0c1f69dbc80"},
	} {
		g := digestGenerator(t, tc.synth, 3, 20230427)
		h := sha256.New()
		var buf [8]byte
		for d := 0; d < 3; d++ {
			day, w, err := g.NextDay()
			if err != nil {
				t.Fatal(err)
			}
			for o := range day.Zone {
				for s := range aras.SlotsPerDay {
					h.Write([]byte{byte(day.Zone[o][s]), byte(day.Act[o][s])})
				}
			}
			for _, col := range day.Appliance {
				h.Write(col)
			}
			for _, col := range [][]float64{w.TempF, w.CO2PPM} {
				for _, v := range col {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
					h.Write(buf[:])
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: day digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// BenchmarkNextDay times one generator day (plan, rasterize and weather,
// into reused buffers) of house A and of the synthetic home, in µs/day.
func BenchmarkNextDay(b *testing.B) {
	for _, bc := range []struct {
		name  string
		synth bool
	}{{"A", false}, {"synth", true}} {
		b.Run(bc.name, func(b *testing.B) {
			g := digestGenerator(b, bc.synth, 0, 7)
			house := g.House()
			day := aras.NewDay(len(house.Occupants), len(house.Appliances))
			w := aras.Weather{TempF: make([]float64, aras.SlotsPerDay), CO2PPM: make([]float64, aras.SlotsPerDay)}
			for b.Loop() {
				if err := g.NextDayInto(&day, &w); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/day")
		})
	}
}
