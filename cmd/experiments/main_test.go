package main

import (
	"testing"
	"time"

	"github.com/acyd-lab/shatter/internal/stream"
)

// TestParseChaos: -stream-chaos accepts schedules that honour the
// FaultConfig contract and rejects impossible ones — a non-finite,
// negative or >1 probability would silently run a fault-free or distorted
// "chaos" fleet, as would probabilities summing past 1.
func TestParseChaos(t *testing.T) {
	ok := []struct {
		spec string
		want stream.FaultConfig
	}{
		{"drop=0.3,dup=0.2,disc=0.1,seed=7", stream.FaultConfig{Seed: 7, Drop: 0.3, Duplicate: 0.2, Disconnect: 0.1}},
		{"delay=0.5,maxdelay=1ms,clean=-1", stream.FaultConfig{Delay: 0.5, MaxDelay: time.Millisecond, CleanAttempt: -1}},
		{"drop=1", stream.FaultConfig{Drop: 1}},
		{"drop=0,maxdelay=0s", stream.FaultConfig{}},
		// Sums to 1 in decimal, 1.0000000000000002 in float64.
		{"drop=0.1,dup=0.2,delay=0.7", stream.FaultConfig{Drop: 0.1, Duplicate: 0.2, Delay: 0.7}},
	}
	for _, c := range ok {
		got, err := parseChaos(c.spec)
		if err != nil {
			t.Errorf("parseChaos(%q): %v", c.spec, err)
			continue
		}
		if *got != c.want {
			t.Errorf("parseChaos(%q) = %+v, want %+v", c.spec, *got, c.want)
		}
	}
	for _, spec := range []string{
		"drop=NaN,seed=7",
		"drop=Inf",
		"corrupt=-Inf",
		"drop=-1,dup=1.5",
		"trunc=1.01",
		"drop=0.9,disc=0.9",
		"drop=0.5,dup=0.3,delay=0.3",
		"maxdelay=-1ms",
		"drop=1e400",
		"drop",
		"bogus=1",
	} {
		if cfg, err := parseChaos(spec); err == nil {
			t.Errorf("parseChaos(%q) = %+v, want an error", spec, *cfg)
		}
	}
}
