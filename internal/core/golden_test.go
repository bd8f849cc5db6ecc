package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/acyd-lab/shatter/internal/fleetd"
	"github.com/acyd-lab/shatter/internal/mqtt"
	"github.com/acyd-lab/shatter/internal/scenario"
	"github.com/acyd-lab/shatter/internal/stream"
)

// update rewrites the committed goldens instead of comparing against them:
// go test ./internal/core/ -run TestStreamFleetGolden -update
var update = flag.Bool("update", false, "rewrite testdata/golden instead of comparing against it")

// goldenStreamFleet is the pinned defended, attacked fleet result.
const goldenStreamFleet = "testdata/golden/stream_fleet.json"

// canonicalFleet renders a fleet result as the golden's indented JSON, with
// the wall-clock fields and the transport's frame count zeroed: what is
// left is a pure function of the worlds, the defender and the campaign.
func canonicalFleet(t *testing.T, r stream.FleetResult) []byte {
	t.Helper()
	r.Stats.Elapsed, r.Stats.HomesPerSec, r.Stats.EventsPerSec, r.Stats.BusFrames = 0, 0, 0, 0
	r.Outcomes = append([]stream.HomeOutcome(nil), r.Outcomes...)
	for i := range r.Outcomes {
		r.Outcomes[i].Duration = 0
	}
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(raw, '\n')
}

// checkGolden compares got against the golden file, naming the first line
// that differs.
func checkGolden(t *testing.T, path, label string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (regenerate with -update)", path, err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("%s: %s differs from the golden at line %d:\n got: %s\nwant: %s", label, path, i+1, gl, wl)
		}
	}
}

// TestStreamFleetGolden pins Suite.Stream's result for a defended, attacked
// 2-day fleet over registry homes A, B and studio, on the direct path and
// through an in-process broker: both framings must reproduce the committed
// file byte for byte, and the bus must move exactly one frame per home-day.
func TestStreamFleetGolden(t *testing.T) {
	s, err := NewSuite(SuiteConfig{Days: 12, TrainDays: 9, Seed: 99, WindowLen: 10, Scenarios: []string{"A", "B", "studio"}})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]scenario.Spec, len(s.Worlds))
	for i, w := range s.Worlds {
		specs[i] = w.Spec
	}
	opts := StreamOptions{Days: 2, Defend: true, Attack: true}
	direct, err := s.Stream(specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := canonicalFleet(t, direct)
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenStreamFleet), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenStreamFleet, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, goldenStreamFleet, "direct", got)

	broker, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()
	opts.ShardOptions = fleetd.ShardOptions{Broker: broker.Addr()}
	piped, err := s.Stream(specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, goldenStreamFleet, "mqtt", canonicalFleet(t, piped))
	if piped.Stats.BusFrames != piped.Stats.Days {
		t.Fatalf("mqtt: %d bus frames for %d home-days", piped.Stats.BusFrames, piped.Stats.Days)
	}
}
