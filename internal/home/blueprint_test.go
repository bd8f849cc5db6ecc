package home

import (
	"errors"
	"testing"
)

// eightZone returns a valid multi-bedroom blueprint for the builder tests.
func eightZone() Blueprint {
	return Blueprint{
		Name: "test8",
		Zones: []Zone{
			{Name: "Bed1", Kind: Bedroom, VolumeFt3: 900, AreaFt2: 100, MaxOccupancy: 2},
			{Name: "Bed2", Kind: Bedroom, VolumeFt3: 900, AreaFt2: 100, MaxOccupancy: 2},
			{Name: "Bed3", Kind: Bedroom, VolumeFt3: 900, AreaFt2: 100, MaxOccupancy: 2},
			{Name: "Living", Kind: Livingroom, VolumeFt3: 2000, AreaFt2: 220, MaxOccupancy: 8},
			{Name: "Kitchen", Kind: Kitchen, VolumeFt3: 1000, AreaFt2: 110, MaxOccupancy: 4},
			{Name: "BathA", Kind: Bathroom, VolumeFt3: 450, AreaFt2: 50, MaxOccupancy: 1},
			{Name: "BathB", Kind: Bathroom, VolumeFt3: 450, AreaFt2: 50, MaxOccupancy: 1},
			{Name: "Office", Kind: Livingroom, VolumeFt3: 800, AreaFt2: 90, MaxOccupancy: 2},
		},
		Occupants: []Occupant{
			{Name: "P", Demographics: 1.0},
			{Name: "Q", Demographics: 1.1},
			{Name: "R", Demographics: 0.9},
		},
	}
}

func TestBuildHouseMultiZone(t *testing.T) {
	h, err := BuildHouse(eightZone())
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Zones) != 9 { // Outside prepended
		t.Fatalf("%d zones, want 9", len(h.Zones))
	}
	for i, z := range h.Zones {
		if z.ID != ZoneID(i) {
			t.Errorf("zone %d has ID %d", i, z.ID)
		}
	}
	// Round-robin bedroom assignment: three occupants, three bedrooms.
	seen := map[ZoneID]bool{}
	for o := range h.Occupants {
		z := h.ZoneForActivity(o, Sleeping)
		if h.KindOf(z) != Bedroom {
			t.Errorf("occupant %d sleeps in %v-kind zone", o, h.KindOf(z))
		}
		if seen[z] {
			t.Errorf("occupant %d shares a bedroom despite spare rooms", o)
		}
		seen[z] = true
	}
	// Kind-aware intense activity: an extra living-kind zone (Office, id 8)
	// must report the living room's peak activity.
	if got := h.MostIntenseActivity(8); got != MostIntenseActivityInZone(Livingroom) {
		t.Errorf("office intense activity %v, want living-kind %v", got, MostIntenseActivityInZone(Livingroom))
	}
	// Default fit-out retargets by kind: every appliance in a real zone.
	if len(h.Appliances) == 0 {
		t.Fatal("no appliances")
	}
	for _, a := range h.Appliances {
		if !a.Zone.Conditioned() || int(a.Zone) >= len(h.Zones) {
			t.Errorf("appliance %s in bad zone %d", a.Name, a.Zone)
		}
	}
	// Activity links resolve by name on the retargeted fit-out.
	if appls := h.AppliancesForActivity(PreparingDinner); len(appls) != 2 {
		t.Errorf("dinner links %d appliances, want 2", len(appls))
	}
}

func TestBuildHouseMatchesNewHouse(t *testing.T) {
	for _, name := range []string{"A", "B"} {
		bp, err := ArasBlueprint(name)
		if err != nil {
			t.Fatal(err)
		}
		built, err := BuildHouse(bp)
		if err != nil {
			t.Fatal(err)
		}
		legacy := MustHouse(name)
		if len(built.Zones) != len(legacy.Zones) || len(built.Appliances) != len(legacy.Appliances) {
			t.Fatalf("house %s: blueprint build diverges from NewHouse", name)
		}
		for z := range legacy.Zones {
			if built.Zones[z] != legacy.Zones[z] {
				t.Errorf("house %s zone %d: %+v != %+v", name, z, built.Zones[z], legacy.Zones[z])
			}
		}
		for o := range legacy.Occupants {
			for a := ActivityID(0); a < NumActivities; a++ {
				if built.ZoneForActivity(o, a) != ActivityByID(a).Zone {
					t.Errorf("house %s: occupant %d activity %v not canonical", name, o, a)
				}
			}
		}
	}
}

func TestBuildHouseValidation(t *testing.T) {
	check := func(name string, mutate func(*Blueprint)) {
		bp := eightZone()
		mutate(&bp)
		if _, err := BuildHouse(bp); !errors.Is(err, ErrBadBlueprint) {
			t.Errorf("%s: got %v, want ErrBadBlueprint", name, err)
		}
	}
	check("empty name", func(bp *Blueprint) { bp.Name = "" })
	check("no occupants", func(bp *Blueprint) { bp.Occupants = nil })
	check("no zones", func(bp *Blueprint) { bp.Zones = nil })
	check("zero volume", func(bp *Blueprint) { bp.Zones[0].VolumeFt3 = 0 })
	check("zero capacity", func(bp *Blueprint) { bp.Zones[0].MaxOccupancy = 0 })
	check("bad demographics", func(bp *Blueprint) { bp.Occupants[0].Demographics = 0 })
	check("missing kind past canon", func(bp *Blueprint) { bp.Zones[7].Kind = Outside })
	check("missing kitchen", func(bp *Blueprint) { bp.Zones[4].Kind = Livingroom })
	check("bad appliance zone", func(bp *Blueprint) {
		bp.Appliances = []Appliance{{Name: "X", Zone: 99, PowerW: 100}}
	})
	check("bad pin", func(bp *Blueprint) {
		bp.ZoneAssignments = [][]ZoneID{{Outside, 99, 0, 0, 0}}
	})
	check("negative pin", func(bp *Blueprint) {
		bp.ZoneAssignments = [][]ZoneID{{Outside, -1, 0, 0, 0}}
	})
	check("bad activity link", func(bp *Blueprint) {
		bp.ActivityAppliances = map[ActivityID][]string{ActivityID(99): {"Oven"}}
	})
	check("link to unknown appliance", func(bp *Blueprint) {
		bp.ActivityAppliances = map[ActivityID][]string{WatchingTV: {"Tv"}} // typo for "TV"
	})
}

func TestZoneAssignmentPinning(t *testing.T) {
	bp := eightZone()
	// Pin all three occupants into Bed2 (zone 2) and BathB (zone 7).
	bp.ZoneAssignments = [][]ZoneID{
		{Outside, 2, 0, 0, 7},
		{Outside, 2, 0, 0, 7},
		{Outside, 2, 0, 0, 7},
	}
	h, err := BuildHouse(bp)
	if err != nil {
		t.Fatal(err)
	}
	for o := range h.Occupants {
		if z := h.ZoneForActivity(o, Sleeping); z != 2 {
			t.Errorf("occupant %d sleeps in %d, want pinned 2", o, z)
		}
		if z := h.ZoneForActivity(o, HavingShower); z != 7 {
			t.Errorf("occupant %d showers in %d, want pinned 7", o, z)
		}
		// Unpinned kinds still round-robin.
		if k := h.KindOf(h.ZoneForActivity(o, PreparingDinner)); k != Kitchen {
			t.Errorf("occupant %d cooks in %v-kind zone", o, k)
		}
	}
}

// TestBuildHouseZoneBound pins the byte-wide ZoneID's limit: MaxZones
// zones, Outside included, build with every ID and the zone count intact,
// and one more zone fails with ErrBadBlueprint instead of wrapping.
func TestBuildHouseZoneBound(t *testing.T) {
	withZones := func(n int) Blueprint {
		bp := eightZone()
		for len(bp.Zones) < n {
			bp.Zones = append(bp.Zones, Zone{Name: "Extra", Kind: Bedroom, VolumeFt3: 900, AreaFt2: 100, MaxOccupancy: 2})
		}
		return bp
	}
	h, err := BuildHouse(withZones(MaxZones - 1))
	if err != nil {
		t.Fatalf("%d conditioned zones: %v", MaxZones-1, err)
	}
	if len(h.Zones) != MaxZones || int(ZoneID(len(h.Zones))) != MaxZones {
		t.Fatalf("house has %d zones, ZoneID(len) = %d; want %d", len(h.Zones), ZoneID(len(h.Zones)), MaxZones)
	}
	for i, z := range h.Zones {
		if int(z.ID) != i {
			t.Fatalf("zone %d has ID %d", i, z.ID)
		}
	}
	if _, err := BuildHouse(withZones(MaxZones)); !errors.Is(err, ErrBadBlueprint) {
		t.Errorf("%d conditioned zones plus Outside: got %v, want ErrBadBlueprint", MaxZones, err)
	}
	bp := withZones(MaxZones - 1)
	bp.Zones = append([]Zone{{Name: "Outside", MaxOccupancy: 1}}, bp.Zones...)
	bp.Zones = append(bp.Zones, Zone{Name: "Extra", Kind: Bedroom, VolumeFt3: 900, AreaFt2: 100, MaxOccupancy: 2})
	if _, err := BuildHouse(bp); !errors.Is(err, ErrBadBlueprint) {
		t.Errorf("explicit Outside plus %d zones: got %v, want ErrBadBlueprint", MaxZones, err)
	}
}
