package aras

import (
	"strconv"
	"testing"

	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/rng"
)

// oracleColumns are the adversarial columns the bit helpers are held to,
// as one bool per slot: empty, full, single slots at the day's and the
// bytes' edges, both alternations, runs across byte boundaries, and random
// columns.
func oracleColumns() map[string][]bool {
	cols := map[string][]bool{}
	col := func(name string, on func(t int) bool) {
		c := make([]bool, SlotsPerDay)
		for t := range c {
			c[t] = on(t)
		}
		cols[name] = c
	}
	col("off", func(int) bool { return false })
	col("on", func(int) bool { return true })
	col("alternating0", func(t int) bool { return t%2 == 0 })
	col("alternating1", func(t int) bool { return t%2 == 1 })
	for _, s := range []int{0, 1, 7, 8, 9, 15, 16, 1431, 1432, 1438, 1439} {
		col("slot"+strconv.Itoa(s), func(t int) bool { return t == s })
		col("all-but"+strconv.Itoa(s), func(t int) bool { return t != s })
	}
	col("byte-edges", func(t int) bool { return t%8 == 0 || t%8 == 7 })
	col("runs", func(t int) bool { return (t >= 5 && t < 19) || (t >= 1430 && t < 1440) || (t >= 64 && t < 72) })
	r := rng.New(11)
	for i := 0; i < 8; i++ {
		p := r.Float64()
		col("random"+strconv.Itoa(i), func(int) bool { return r.Bool(p) })
	}
	return cols
}

// pack builds a packed column from a bool column with SetBit.
func pack(col []bool) []byte {
	out := NewColumns(1)[0]
	for t, on := range col {
		SetBit(out, t, on)
	}
	return out
}

// TestBitHelpersMatchBoolOracle holds the packed-column helpers to a
// bool-per-slot oracle on adversarial columns: the layout (slot t is bit
// t%8 of byte t/8), Bit, SetBit in both directions, SetRun over runs at
// every byte and day edge, OrBits, the ChangedBits scan and CountBits.
func TestBitHelpersMatchBoolOracle(t *testing.T) {
	cols := oracleColumns()
	runs := [][2]int{{0, 0}, {0, 1}, {0, 8}, {0, 9}, {1, 8}, {7, 8}, {7, 9}, {8, 16}, {3, 21},
		{1432, 1440}, {1439, 1440}, {1431, 1439}, {5, 1437}, {0, SlotsPerDay}, {9, 9}, {12, 4}}
	for name, want := range cols {
		got := pack(want)
		if len(got) != ColumnBytes {
			t.Fatalf("%s: %d packed bytes, want %d", name, len(got), ColumnBytes)
		}
		n := 0
		for s, on := range want {
			if Bit(got, s) != on || (got[s/8]&(1<<(s%8)) != 0) != on {
				t.Fatalf("%s slot %d: packed %v, want %v", name, s, Bit(got, s), on)
			}
			if on {
				n++
			}
		}
		if c := CountBits(got); c != n {
			t.Fatalf("%s: CountBits %d, want %d", name, c, n)
		}
		// Clearing every bit through SetBit leaves an all-off column.
		cleared := pack(want)
		for s := range want {
			SetBit(cleared, s, false)
		}
		if CountBits(cleared) != 0 {
			t.Fatalf("%s: SetBit(false) left %d bits on", name, CountBits(cleared))
		}
		for i := 0; i < ColumnBytes; i++ {
			d := ChangedBits(got, i)
			for j := 0; j < 8; j++ {
				s := 8*i + j
				marked, changed := d&(1<<j) != 0, s > 0 && want[s] != want[s-1]
				if marked != changed {
					t.Fatalf("%s slot %d: ChangedBits marks %v, want %v", name, s, marked, changed)
				}
			}
		}
		for _, run := range runs {
			col := pack(want)
			SetRun(col, run[0], run[1])
			for s := range want {
				if on := want[s] || (s >= run[0] && s < run[1]); Bit(col, s) != on {
					t.Fatalf("%s: SetRun%v slot %d: %v, want %v", name, run, s, Bit(col, s), on)
				}
			}
		}
		for other, src := range cols {
			dst := pack(want)
			OrBits(dst, pack(src))
			for s := range want {
				if on := want[s] || src[s]; Bit(dst, s) != on {
					t.Fatalf("%s | %s slot %d: %v, want %v", name, other, s, Bit(dst, s), on)
				}
			}
		}
	}
}

// TestNewColumnsDisjoint checks that the columns NewColumns carves from one
// array neither overlap nor grow into each other.
func TestNewColumnsDisjoint(t *testing.T) {
	cols := NewColumns(3)
	SetRun(cols[1], 0, SlotsPerDay)
	if CountBits(cols[0]) != 0 || CountBits(cols[2]) != 0 {
		t.Fatal("filling column 1 leaked into a neighbour")
	}
	if c := cap(cols[0]); c != ColumnBytes {
		t.Fatalf("column capacity %d, want %d", c, ColumnBytes)
	}
	if house := home.MustHouse("A"); len(NewDay(2, len(house.Appliances)).Appliance[0]) != ColumnBytes {
		t.Fatal("NewDay's appliance column is not one packed column")
	}
}

// BenchmarkSeekDay times a 1,000-day seek on house A: a fresh generator
// skipping its first 1,000 days, as a checkpoint restore does.
func BenchmarkSeekDay(b *testing.B) {
	const days = 1000
	house := home.MustHouse("A")
	for b.Loop() {
		g, err := NewGenerator(house, GeneratorConfig{Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		for range days {
			if err := g.SkipDay(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*days), "us/day")
}
