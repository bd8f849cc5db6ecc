package stream

import (
	"errors"
	"io"
	"reflect"
	"testing"
	"time"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/home"
)

// traceSrc builds a small deterministic source for fault-layer tests.
func traceSrc(t *testing.T, days int) *TraceSource {
	t.Helper()
	house := home.MustHouse("A")
	tr, err := aras.Generate(house, aras.GeneratorConfig{Days: days, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return NewTraceSource("A", tr)
}

// TestFaultPlanCleanAttempt pins the retry-escape hatch: attempts past
// CleanAttempt run fault-free, the default is two faulty attempts, and a
// negative value keeps every attempt faulty.
func TestFaultPlanCleanAttempt(t *testing.T) {
	cfg := &FaultConfig{Seed: 1, Drop: 1}
	if cfg.Plan("h", 0) == nil || cfg.Plan("h", 1) == nil {
		t.Fatal("default faulty attempts missing")
	}
	if cfg.Plan("h", 2) != nil {
		t.Fatal("default clean attempt still faulty")
	}
	cfg.CleanAttempt = 1
	if cfg.Plan("h", 0) == nil || cfg.Plan("h", 1) != nil {
		t.Fatal("CleanAttempt=1 schedule wrong")
	}
	cfg.CleanAttempt = -1
	if cfg.Plan("h", 10) == nil {
		t.Fatal("negative CleanAttempt produced a clean attempt")
	}
	var nilCfg *FaultConfig
	if nilCfg.Plan("h", 0) != nil {
		t.Fatal("nil config produced a plan")
	}
}

// plan1 returns a plan whose every roll is the given class.
func plan1(t *testing.T, set func(*FaultConfig)) *FaultPlan {
	t.Helper()
	cfg := &FaultConfig{Seed: 3, CleanAttempt: -1, MaxDelay: 100 * time.Microsecond}
	set(cfg)
	p := cfg.Plan("h", 0)
	if p == nil {
		t.Fatal("nil plan")
	}
	return p
}

// faultSrc wraps a days-long trace source in the direct-path fault
// wrapper under the given schedule.
func faultSrc(t *testing.T, days int, set func(*FaultConfig)) Source {
	t.Helper()
	return NewFaultSource(traceSrc(t, days), plan1(t, set), nil)
}

// TestFaultSourceClasses drives each fault class through the direct-path
// wrapper and checks the manufactured failure mode.
func TestFaultSourceClasses(t *testing.T) {
	t.Run("drop", func(t *testing.T) {
		// Dropping every frame consumes the stream to its end — but losing
		// the tail must never complete the home silently short, so EOF after
		// an unsurfaced drop is an injected-fault error.
		fs := faultSrc(t, 1, func(c *FaultConfig) { c.Drop = 1 })
		var b DayBlock
		if err := fs.NextBlock(&b); !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("err = %v, want injected fault (tail dropped)", err)
		}
	})
	t.Run("duplicate", func(t *testing.T) {
		fs := faultSrc(t, 2, func(c *FaultConfig) { c.Duplicate = 1 })
		var a, b, c DayBlock
		for _, blk := range []*DayBlock{&a, &b, &c} {
			if err := fs.NextBlock(blk); err != nil {
				t.Fatal(err)
			}
		}
		if a.Day != 0 || b.Day != 0 || c.Day != 1 {
			t.Fatalf("days %d,%d,%d, want 0,0,1", a.Day, b.Day, c.Day)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatal("duplicate differs from the original frame")
		}
	})
	t.Run("corrupt", func(t *testing.T) {
		fs := faultSrc(t, 1, func(c *FaultConfig) { c.Corrupt = 1 })
		var b DayBlock
		if err := fs.NextBlock(&b); !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("err = %v, want injected fault", err)
		}
	})
	t.Run("truncate", func(t *testing.T) {
		fs := faultSrc(t, 1, func(c *FaultConfig) { c.Truncate = 1 })
		var b DayBlock
		if err := fs.NextBlock(&b); err != nil {
			t.Fatal(err)
		}
		house := home.MustHouse("A")
		if appl := len(house.Appliances); len(b.TrueAppliance) != appl-1 || len(b.RepAppliance) != appl-1 {
			t.Fatalf("appliance columns %d/%d, want %d", len(b.TrueAppliance), len(b.RepAppliance), appl-1)
		}
		if b.shapeErr(len(house.Occupants), len(house.Appliances)) == nil {
			t.Fatal("truncated block passes the home's structural check")
		}
	})
	t.Run("disconnect", func(t *testing.T) {
		fs := faultSrc(t, 1, func(c *FaultConfig) { c.Disconnect = 1 })
		var b DayBlock
		if err := fs.NextBlock(&b); !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("err = %v, want injected fault", err)
		}
		// The connection stays dead.
		if err := fs.NextBlock(&b); !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("second read: %v, want injected fault", err)
		}
	})
	t.Run("delay", func(t *testing.T) {
		// Delays perturb latency only; every frame arrives intact and in
		// order.
		const days = 3
		fs := faultSrc(t, days, func(c *FaultConfig) { c.Delay = 1 })
		ref := traceSrc(t, days)
		var b, want DayBlock
		n := 0
		for {
			if err := fs.NextBlock(&b); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			if err := ref.NextBlock(&want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(b, want) {
				t.Fatalf("delayed day %d arrived altered", b.Day)
			}
			n++
		}
		if n != days {
			t.Fatalf("delivered %d frames, want %d", n, days)
		}
	})
}

// TestFaultPlanRollDayKeying: the block schedule is keyed by
// (home, attempt, day), not by call order — querying days in any order, or
// only a suffix (a resumed attempt), yields the same classes — while
// different homes, attempts, and days still diverge.
func TestFaultPlanRollDayKeying(t *testing.T) {
	cfg := &FaultConfig{Seed: 99, Drop: 0.15, Duplicate: 0.15, Delay: 0.15,
		Corrupt: 0.15, Truncate: 0.15, Disconnect: 0.1, MaxDelay: time.Millisecond}
	const days = 64
	rollAll := func(home string, attempt int, order []int) map[int]FaultClass {
		p := cfg.Plan(home, attempt)
		if p == nil {
			t.Fatalf("plan (%s,%d) unexpectedly clean", home, attempt)
		}
		out := make(map[int]FaultClass, len(order))
		for _, d := range order {
			c, stall := p.RollDay(d)
			if (c == FaultDelay) != (stall > 0) {
				t.Fatalf("day %d: class %v with stall %v", d, c, stall)
			}
			out[d] = c
		}
		return out
	}
	fwd := make([]int, days)
	rev := make([]int, days)
	for i := range fwd {
		fwd[i], rev[i] = i, days-1-i
	}
	a, b := rollAll("h1", 0, fwd), rollAll("h1", 0, rev)
	for d := 0; d < days; d++ {
		if a[d] != b[d] {
			t.Fatalf("day %d class depends on query order: %v vs %v", d, a[d], b[d])
		}
	}
	// A resumed attempt that only queries the tail sees the same suffix.
	tail := rollAll("h1", 0, fwd[days/2:])
	for d := days / 2; d < days; d++ {
		if a[d] != tail[d] {
			t.Fatalf("day %d class depends on resume point", d)
		}
	}
	diff := func(x, y map[int]FaultClass) bool {
		for d := 0; d < days; d++ {
			if x[d] != y[d] {
				return true
			}
		}
		return false
	}
	if !diff(a, rollAll("h2", 0, fwd)) {
		t.Fatal("different homes share a block schedule")
	}
	if !diff(a, rollAll("h1", 1, fwd)) {
		t.Fatal("different attempts share a block schedule")
	}
	varies := false
	for d := 1; d < days; d++ {
		if a[d] != a[0] {
			varies = true
			break
		}
	}
	if !varies {
		t.Fatal("every day rolled the same class — day keying inert?")
	}
}

// TestFaultSourceSeekDay: the wrapper forwards seeks so faulty retry
// attempts can still resume from a checkpoint.
func TestFaultSourceSeekDay(t *testing.T) {
	fs := faultSrc(t, 3, func(c *FaultConfig) { c.Delay = 0.001 })
	if err := fs.(DaySeeker).SeekDay(2); err != nil {
		t.Fatal(err)
	}
	var b DayBlock
	if err := fs.NextBlock(&b); err != nil {
		t.Fatal(err)
	}
	if b.Day != 2 {
		t.Fatalf("post-seek frame for day %d, want 2", b.Day)
	}
}
