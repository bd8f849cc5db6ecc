package scenario

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/home"
)

// TestBuiltinsRoundTrip asserts every registered builtin builds a valid
// house and generates a well-formed trace: the registry is usable end to
// end without special-casing any ID.
func TestBuiltinsRoundTrip(t *testing.T) {
	ids := IDs()
	if len(ids) < 6 {
		t.Fatalf("%d builtins registered, want >= 6 (A, B + 4 archetypes)", len(ids))
	}
	if ids[0] != "A" || ids[1] != "B" {
		t.Fatalf("paper pair must lead the registry, got %v", ids[:2])
	}
	for _, id := range ids {
		sp, ok := Get(id)
		if !ok {
			t.Fatalf("IDs() lists %q but Get misses it", id)
		}
		if err := sp.Validate(); err != nil {
			t.Errorf("%s: %v", id, err)
			continue
		}
		h, err := sp.Build()
		if err != nil {
			t.Errorf("%s: build: %v", id, err)
			continue
		}
		if h.Name != id {
			t.Errorf("%s: house named %q", id, h.Name)
		}
		if len(h.Zones) != len(sp.Zones)+1 {
			t.Errorf("%s: %d zones, want %d + Outside", id, len(h.Zones), len(sp.Zones))
		}
		// Every occupant must be able to conduct every activity in a real
		// zone; without an explicit pin the zone's kind must match the
		// activity's canonical zone (a pinned assignment — e.g. the studio's
		// bedroom activities in the main room — may cross kinds on purpose).
		for o := range h.Occupants {
			for a := home.ActivityID(0); a < home.NumActivities; a++ {
				z := h.ZoneForActivity(o, a)
				want := home.ActivityByID(a).Zone
				if want == home.Outside {
					if z != home.Outside {
						t.Errorf("%s: occupant %d activity %v should be Outside, got zone %d", id, o, a, z)
					}
					continue
				}
				if int(z) <= 0 || int(z) >= len(h.Zones) {
					t.Fatalf("%s: occupant %d activity %v has no zone (%d)", id, o, a, z)
				}
				pinned := o < len(sp.ZoneAssignments) && int(want) < len(sp.ZoneAssignments[o]) &&
					sp.ZoneAssignments[o][want] != home.Outside
				if !pinned && h.KindOf(z) != want {
					t.Errorf("%s: occupant %d activity %v lands in %v-kind zone %d, want kind %v",
						id, o, a, h.KindOf(z), z, want)
				}
			}
		}
		tr, err := sp.Generate(3, 7)
		if err != nil {
			t.Errorf("%s: generate: %v", id, err)
			continue
		}
		if tr.NumDays() != 3 {
			t.Errorf("%s: %d days", id, tr.NumDays())
		}
		for o := range h.Occupants {
			if eps := tr.Episodes(o); len(eps) == 0 {
				t.Errorf("%s: occupant %d has no episodes", id, o)
			}
			for d := range tr.Days {
				for _, z := range tr.Days[d].Zone[o] {
					if int(z) < 0 || int(z) >= len(h.Zones) {
						t.Fatalf("%s: occupant %d recorded in out-of-range zone %d", id, o, z)
					}
				}
			}
		}
	}
}

// TestArasSpecsMatchLegacyPipeline asserts the registry's "A"/"B" specs
// reproduce the hardwired NewHouse+Generate pipeline byte for byte — the
// refactor's central compatibility guarantee.
func TestArasSpecsMatchLegacyPipeline(t *testing.T) {
	for _, name := range []string{"A", "B"} {
		sp, ok := Get(name)
		if !ok {
			t.Fatalf("scenario %s not registered", name)
		}
		legacyHouse := home.MustHouse(name)
		legacyTrace, err := aras.Generate(legacyHouse, aras.GeneratorConfig{Days: 4, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		specTrace, err := sp.Generate(4, 99)
		if err != nil {
			t.Fatal(err)
		}
		var legacyCSV, specCSV bytes.Buffer
		if err := legacyTrace.WriteCSV(&legacyCSV); err != nil {
			t.Fatal(err)
		}
		if err := specTrace.WriteCSV(&specCSV); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(legacyCSV.Bytes(), specCSV.Bytes()) {
			t.Errorf("house %s: spec-generated trace diverges from the legacy pipeline", name)
		}
	}
}

// TestSynthDeterminism asserts Synth is a pure function of its arguments
// and that its worlds generate deterministically.
func TestSynthDeterminism(t *testing.T) {
	a := Synth(9, 3, 42)
	b := Synth(9, 3, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Synth(9,3,42) is not deterministic")
	}
	if a.ID != SynthID(9, 3, 42) {
		t.Errorf("ID %q, want %q", a.ID, SynthID(9, 3, 42))
	}
	if len(a.Zones) != 9 || len(a.Occupants) != 3 {
		t.Fatalf("shape %dz/%do, want 9z/3o", len(a.Zones), len(a.Occupants))
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	tr1, err := a.Generate(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := b.Generate(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	var c1, c2 bytes.Buffer
	if err := tr1.WriteCSV(&c1); err != nil {
		t.Fatal(err)
	}
	if err := tr2.WriteCSV(&c2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1.Bytes(), c2.Bytes()) {
		t.Error("identical Synth specs generated different traces")
	}
	if reflect.DeepEqual(Synth(9, 3, 43), a) {
		t.Error("different seeds produced identical specs")
	}
}

// TestSynthShapes asserts the sweep-relevant shapes (including the
// acceptance floor of 12 zones / 4 occupants) build and generate.
func TestSynthShapes(t *testing.T) {
	for _, shape := range []struct{ z, o int }{{4, 1}, {8, 3}, {12, 4}, {16, 6}} {
		sp := Synth(shape.z, shape.o, 1)
		h, err := sp.Build()
		if err != nil {
			t.Errorf("%dz/%do: %v", shape.z, shape.o, err)
			continue
		}
		if len(h.Zones)-1 != shape.z || len(h.Occupants) != shape.o {
			t.Errorf("%s: built %dz/%do", sp.ID, len(h.Zones)-1, len(h.Occupants))
		}
	}
	// Degenerate shapes are clamped, not rejected, and SynthID clamps
	// identically so precomputed cache keys always match.
	if sp := Synth(0, 0, 1); len(sp.Zones) != 4 || len(sp.Occupants) != 1 {
		t.Errorf("clamping failed: %dz/%do", len(sp.Zones), len(sp.Occupants))
	}
	if Synth(0, 0, 1).ID != SynthID(0, 0, 1) {
		t.Errorf("SynthID clamp mismatch: %q vs %q", Synth(0, 0, 1).ID, SynthID(0, 0, 1))
	}
}

// TestSynthZoneBound holds procedural homes to the byte-wide ZoneID: a
// synth home with home.MaxZones zones, Outside included, builds with every
// zone ID in order, and "synth:200x2" fails with home.ErrBadBlueprint when
// its house is built instead of wrapping its zone IDs.
func TestSynthZoneBound(t *testing.T) {
	h, err := Synth(home.MaxZones-1, 2, 1).Build()
	if err != nil {
		t.Fatalf("%d conditioned zones: %v", home.MaxZones-1, err)
	}
	for i, z := range h.Zones {
		if int(z.ID) != i {
			t.Fatalf("zone %d has ID %d", i, z.ID)
		}
	}
	sp, err := Parse("synth:200x2", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Build(); !errors.Is(err, home.ErrBadBlueprint) {
		t.Errorf("synth:200x2 Build: got %v, want home.ErrBadBlueprint", err)
	}
	if err := sp.Validate(); !errors.Is(err, ErrBadSpec) {
		t.Errorf("synth:200x2 Validate: got %v, want ErrBadSpec", err)
	}
}

// TestRegisterValidation asserts bad specs are rejected and duplicates
// refused.
func TestRegisterValidation(t *testing.T) {
	if err := Register(Spec{}); err == nil {
		t.Error("empty spec should be rejected")
	}
	if err := Register(Spec{ID: "bad", Controller: "pid"}); err == nil {
		t.Error("unknown controller should be rejected")
	}
	// No bedroom-kind zone and no pinning: occupants cannot sleep anywhere.
	bad := Spec{
		ID: "bad-no-bedroom",
		Zones: []ZoneSpec{
			{Name: "Living", Kind: home.Livingroom, VolumeFt3: 1000, AreaFt2: 100, MaxOccupancy: 4},
			{Name: "Kitchen", Kind: home.Kitchen, VolumeFt3: 900, AreaFt2: 100, MaxOccupancy: 4},
			{Name: "Bath", Kind: home.Bathroom, VolumeFt3: 400, AreaFt2: 45, MaxOccupancy: 1},
		},
		Occupants: []OccupantSpec{{Name: "X", Demographics: 1}},
	}
	if err := bad.Validate(); err == nil {
		t.Error("missing bedroom kind without pinning should be rejected")
	}
	sp, _ := Get("A")
	if err := Register(sp); err == nil {
		t.Error("duplicate ID should be rejected")
	}
}
