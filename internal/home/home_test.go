package home

import (
	"math"
	"testing"
)

func TestNewHouseKnownNames(t *testing.T) {
	for _, name := range []string{"A", "a", "B", "b"} {
		h, err := NewHouse(name)
		if err != nil {
			t.Fatalf("NewHouse(%q): %v", name, err)
		}
		if len(h.Zones) != NumZones {
			t.Errorf("house %s: %d zones, want %d", name, len(h.Zones), NumZones)
		}
		if len(h.Occupants) != 2 {
			t.Errorf("house %s: %d occupants, want 2", name, len(h.Occupants))
		}
		if len(h.Appliances) != 13 {
			t.Errorf("house %s: %d appliances, want 13 (Table VII)", name, len(h.Appliances))
		}
	}
}

func TestNewHouseUnknown(t *testing.T) {
	if _, err := NewHouse("C"); err == nil {
		t.Error("unknown house should error")
	}
}

func TestMustHousePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustHouse(\"zzz\") should panic")
		}
	}()
	MustHouse("zzz")
}

func TestZoneStrings(t *testing.T) {
	tests := map[ZoneID]string{
		Outside: "Outside", Bedroom: "Bedroom", Livingroom: "Livingroom",
		Kitchen: "Kitchen", Bathroom: "Bathroom",
	}
	for z, want := range tests {
		if got := z.String(); got != want {
			t.Errorf("zone %d = %q, want %q", z, got, want)
		}
	}
	if got := ZoneID(99).String(); got != "Zone(99)" {
		t.Errorf("out-of-range zone = %q", got)
	}
}

func TestConditioned(t *testing.T) {
	if Outside.Conditioned() {
		t.Error("Outside must not be conditioned")
	}
	for _, z := range []ZoneID{Bedroom, Livingroom, Kitchen, Bathroom} {
		if !z.Conditioned() {
			t.Errorf("%v should be conditioned", z)
		}
	}
}

func TestActivityTableComplete(t *testing.T) {
	acts := Activities()
	if len(acts) != NumActivities {
		t.Fatalf("%d activities, want %d", len(acts), NumActivities)
	}
	for i, a := range acts {
		if ActivityID(i) != a.ID {
			t.Errorf("activity %d has ID %d", i, a.ID)
		}
		if a.Name == "" {
			t.Errorf("activity %d has empty name", i)
		}
		if a.ID != GoingOut && a.MET <= 0 {
			t.Errorf("activity %v has non-positive MET", a.Name)
		}
		if int(a.Zone) < 0 || int(a.Zone) >= NumZones {
			t.Errorf("activity %v has bad zone", a.Name)
		}
	}
}

func TestActivityRates(t *testing.T) {
	sleep := ActivityByID(Sleeping)
	cook := ActivityByID(PreparingDinner)
	if cook.CO2Ft3PerMin(1.0) <= sleep.CO2Ft3PerMin(1.0) {
		t.Error("cooking must generate more CO2 than sleeping")
	}
	if cook.HeatW(1.0) <= sleep.HeatW(1.0) {
		t.Error("cooking must generate more heat than sleeping")
	}
	// Demographics scaling is linear.
	if math.Abs(cook.HeatW(2.0)-2*cook.HeatW(1.0)) > 1e-12 {
		t.Error("heat should scale linearly with demographics")
	}
	// Sanity: ~1 MET ≈ 75 W sensible.
	watching := ActivityByID(WatchingTV)
	if math.Abs(watching.HeatW(1.0)-75) > 1e-9 {
		t.Errorf("1-MET heat = %v, want 75", watching.HeatW(1.0))
	}
}

func TestActivityByIDOutOfRange(t *testing.T) {
	a := ActivityByID(ActivityID(127))
	if a.MET <= 0 {
		t.Error("fallback activity should have positive MET")
	}
}

func TestActivitiesInZone(t *testing.T) {
	kitchen := ActivitiesInZone(Kitchen)
	if len(kitchen) == 0 {
		t.Fatal("kitchen must host activities")
	}
	for _, id := range kitchen {
		if ActivityByID(id).Zone != Kitchen {
			t.Errorf("%v not a kitchen activity", id)
		}
	}
}

func TestMostIntenseActivityInZone(t *testing.T) {
	got := MostIntenseActivityInZone(Kitchen)
	if got != PreparingDinner {
		t.Errorf("most intense kitchen activity = %v, want PreparingDinner", got)
	}
	// Every zone with activities must return one of its own.
	for z := ZoneID(1); z < NumZones; z++ {
		a := MostIntenseActivityInZone(z)
		if ActivityByID(a).Zone != z {
			t.Errorf("zone %v: most intense activity %v is elsewhere", z, a)
		}
	}
}

func TestApplianceHeat(t *testing.T) {
	a := Appliance{PowerW: 1000, HeatFraction: 0.3}
	if a.HeatW() != 300 {
		t.Errorf("HeatW = %v, want 300", a.HeatW())
	}
}

func TestHouseApplianceQueries(t *testing.T) {
	h := MustHouse("A")
	kitchenAppl := h.AppliancesInZone(Kitchen)
	if len(kitchenAppl) != 5 {
		t.Errorf("%d kitchen appliances, want 5", len(kitchenAppl))
	}
	for _, i := range kitchenAppl {
		if h.Appliances[i].Zone != Kitchen {
			t.Errorf("appliance %d not in kitchen", i)
		}
	}
	dishAppls := h.AppliancesForActivity(WashingDishes)
	if len(dishAppls) != 1 || h.Appliances[dishAppls[0]].Name != "Dishwasher" {
		t.Errorf("washing dishes appliances = %v", dishAppls)
	}
	if h.AppliancesForActivity(Sleeping) != nil {
		t.Error("sleeping should use no appliances")
	}
	if h.AppliancesForActivity(ActivityID(-1)) != nil {
		t.Error("out-of-range activity should return nil")
	}
}

func TestHouseBSmallerThanA(t *testing.T) {
	a, b := MustHouse("A"), MustHouse("B")
	for z := ZoneID(1); z < NumZones; z++ {
		if b.Zone(z).VolumeFt3 >= a.Zone(z).VolumeFt3 {
			t.Errorf("house B zone %v should be smaller than house A", z)
		}
	}
}

func TestHouseZoneAccessor(t *testing.T) {
	h := MustHouse("A")
	if h.Zone(Kitchen).Name != "Kitchen" {
		t.Errorf("Zone(Kitchen).Name = %q", h.Zone(Kitchen).Name)
	}
}
