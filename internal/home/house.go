package home

import (
	"errors"
	"fmt"
)

// Occupant describes one resident. The demographics factor scales the
// per-MET CO2/heat rates (Persily & de Jonge observe, e.g., a middle-aged
// man generating roughly twice an infant's pollutants — Section II
// reason 3).
type Occupant struct {
	ID   int
	Name string
	// Demographics scales physiological generation rates (1.0 = average
	// adult).
	Demographics float64
}

// Appliance describes one smart appliance.
type Appliance struct {
	ID   int
	Name string
	// Zone is where the appliance is installed (D_{z,d} in the paper).
	Zone ZoneID
	// PowerW is the electrical draw when on (P^PC_d).
	PowerW float64
	// HeatFraction is the fraction of PowerW radiated as sensible heat into
	// the zone (P^HRF_d; e.g. LED lighting radiates ≈12% — paper ref [34]).
	HeatFraction float64
	// VoiceTriggerable reports whether the appliance can be activated via
	// (inaudible) voice commands — the appliance-triggering attack surface.
	VoiceTriggerable bool
}

// HeatW returns the appliance's sensible heat contribution in watts when on.
func (a Appliance) HeatW() float64 { return a.PowerW * a.HeatFraction }

// House is a complete home configuration: geometry, residents, appliances.
type House struct {
	Name       string
	Zones      []Zone
	Occupants  []Occupant
	Appliances []Appliance

	// activityAppliances[activity] lists appliance indices habitually used
	// during that activity in this house.
	activityAppliances [NumActivities][]int
	// assigned[o][kind] is the zone occupant o uses for activities whose
	// canonical zone is kind. For the canonical single-zone-per-kind ARAS
	// layout this is the identity mapping.
	assigned [][]ZoneID
}

// Blueprint is the declarative house description BuildHouse assembles —
// the data-driven replacement for the hardwired A/B constructors, used by
// the scenario layer to express arbitrary homes.
type Blueprint struct {
	// Name identifies the house (trace CSVs and dataset names embed it).
	Name string
	// Zones lists the zones in ID order. A leading Outside zone is optional;
	// BuildHouse inserts the canonical one when absent. Conditioned zones
	// must carry a Kind (canonical zones may leave it zero; it normalises to
	// the zone's own ID). A house has at most MaxZones zones, Outside
	// included.
	Zones []Zone
	// Occupants lists the residents; IDs are normalised to slice order.
	Occupants []Occupant
	// Appliances is the smart-appliance fit-out. Nil selects the standard
	// 13-appliance fit-out with each appliance installed in the first zone
	// of its canonical kind.
	Appliances []Appliance
	// ActivityAppliances maps an activity to the names of appliances
	// habitually on while it is conducted. Nil selects the standard links.
	ActivityAppliances map[ActivityID][]string
	// ZoneAssignments pins occupant→zone per kind: ZoneAssignments[o][k] is
	// the zone occupant o uses for activities whose canonical zone is k. A
	// nil table, short row, or zero entry falls back to round-robin over the
	// zones of that kind (occupant o gets the o mod n-th zone).
	ZoneAssignments [][]ZoneID
}

// ErrUnknownHouse is returned by NewHouse for unrecognised names.
var ErrUnknownHouse = errors.New("home: unknown house (want \"A\" or \"B\")")

// ErrBadBlueprint is returned by BuildHouse for invalid blueprints.
var ErrBadBlueprint = errors.New("home: invalid blueprint")

// NewHouse constructs one of the two ARAS-style houses. House A is the
// larger apartment with two working-age adults; House B is smaller with one
// adult away most of the day, which is why the paper's House B costs run
// lower across Tables V-VII. Both are thin wrappers over BuildHouse with
// the canonical blueprints; other homes come from the scenario layer.
func NewHouse(name string) (*House, error) {
	bp, err := ArasBlueprint(name)
	if err != nil {
		return nil, err
	}
	return BuildHouse(bp)
}

// MustHouse is NewHouse for the two known names; it panics on programmer
// error and exists for tests and examples.
func MustHouse(name string) *House {
	h, err := NewHouse(name)
	if err != nil {
		panic(err)
	}
	return h
}

// ArasBlueprint returns the canonical blueprint of ARAS house "A" or "B" —
// the declarative source NewHouse builds from, exported so the scenario
// registry can derive its paper-faithful specs from the same data.
func ArasBlueprint(name string) (Blueprint, error) {
	switch name {
	case "A", "a":
		return Blueprint{
			Name:  "A",
			Zones: standardZones(1.0),
			Occupants: []Occupant{
				{ID: 0, Name: "Alice", Demographics: 1.0},
				{ID: 1, Name: "Bob", Demographics: 1.15},
			},
		}, nil
	case "B", "b":
		return Blueprint{
			Name:  "B",
			Zones: standardZones(0.8),
			Occupants: []Occupant{
				{ID: 0, Name: "Carol", Demographics: 0.9},
				{ID: 1, Name: "Dave", Demographics: 1.1},
			},
		}, nil
	default:
		return Blueprint{}, fmt.Errorf("%w: %q", ErrUnknownHouse, name)
	}
}

// BuildHouse assembles and validates a House from a blueprint.
func BuildHouse(bp Blueprint) (*House, error) {
	if bp.Name == "" {
		return nil, fmt.Errorf("%w: empty house name", ErrBadBlueprint)
	}
	if len(bp.Occupants) == 0 {
		return nil, fmt.Errorf("%w: house %q has no occupants", ErrBadBlueprint, bp.Name)
	}
	zones := make([]Zone, 0, len(bp.Zones)+1)
	// A leading Outside zone is recognised by name plus the Outside shape
	// (no volume, no kind); blueprints typically list conditioned zones only
	// and leave IDs unset, so ID zero cannot mark Outside, and a conditioned
	// zone with a forgotten volume must fall through to validation rather
	// than be silently absorbed as Outside.
	hasOutside := len(bp.Zones) > 0 && bp.Zones[0].Name == "Outside" &&
		bp.Zones[0].VolumeFt3 == 0 && bp.Zones[0].Kind == Outside
	if !hasOutside {
		zones = append(zones, Zone{ID: Outside, Name: "Outside", MaxOccupancy: 1 << 20})
	}
	zones = append(zones, bp.Zones...)
	if len(zones) < 2 {
		return nil, fmt.Errorf("%w: house %q has no conditioned zones", ErrBadBlueprint, bp.Name)
	}
	if len(zones) > MaxZones {
		return nil, fmt.Errorf("%w: house %q has %d zones, Outside included; at most %d fit a ZoneID", ErrBadBlueprint, bp.Name, len(zones), MaxZones)
	}
	for i := range zones {
		z := &zones[i]
		z.ID = ZoneID(i)
		if i == 0 {
			z.Kind = Outside
			continue
		}
		if z.Kind == Outside {
			// Canonical shorthand: conditioned zone with unset kind.
			if i >= NumZones {
				return nil, fmt.Errorf("%w: house %q zone %q needs a Kind", ErrBadBlueprint, bp.Name, z.Name)
			}
			z.Kind = ZoneID(i)
		}
		if z.Kind <= Outside || z.Kind >= NumZones {
			return nil, fmt.Errorf("%w: house %q zone %q has kind %d", ErrBadBlueprint, bp.Name, z.Name, z.Kind)
		}
		if z.VolumeFt3 <= 0 || z.AreaFt2 <= 0 {
			return nil, fmt.Errorf("%w: house %q zone %q needs positive volume and area", ErrBadBlueprint, bp.Name, z.Name)
		}
		if z.MaxOccupancy < 1 {
			return nil, fmt.Errorf("%w: house %q zone %q needs MaxOccupancy >= 1", ErrBadBlueprint, bp.Name, z.Name)
		}
	}
	occupants := append([]Occupant(nil), bp.Occupants...)
	for i := range occupants {
		occupants[i].ID = i
		if occupants[i].Demographics <= 0 {
			return nil, fmt.Errorf("%w: house %q occupant %q needs positive demographics", ErrBadBlueprint, bp.Name, occupants[i].Name)
		}
	}
	// Index zones by kind for appliance retargeting and occupant assignment.
	var kindZones [NumZones][]ZoneID
	for _, z := range zones[1:] {
		kindZones[z.Kind] = append(kindZones[z.Kind], z.ID)
	}
	appliances := bp.Appliances
	if appliances == nil {
		appliances = standardAppliancesFor(kindZones)
	} else {
		appliances = append([]Appliance(nil), appliances...)
	}
	for i := range appliances {
		appliances[i].ID = i
		z := appliances[i].Zone
		if z <= Outside || int(z) >= len(zones) {
			return nil, fmt.Errorf("%w: house %q appliance %q installed in bad zone %d", ErrBadBlueprint, bp.Name, appliances[i].Name, z)
		}
	}
	h := &House{
		Name:       bp.Name,
		Zones:      zones,
		Occupants:  occupants,
		Appliances: appliances,
	}
	// Resolve the per-occupant activity-zone assignment: every occupant
	// needs a zone for each conditioned kind.
	h.assigned = make([][]ZoneID, len(occupants))
	for o := range occupants {
		h.assigned[o] = make([]ZoneID, NumZones)
		for k := Bedroom; k < NumZones; k++ {
			var pinned ZoneID
			if o < len(bp.ZoneAssignments) && int(k) < len(bp.ZoneAssignments[o]) {
				pinned = bp.ZoneAssignments[o][k]
			}
			switch {
			case pinned != Outside:
				if pinned < 0 || int(pinned) >= len(zones) {
					return nil, fmt.Errorf("%w: house %q occupant %d pinned to bad zone %d", ErrBadBlueprint, bp.Name, o, pinned)
				}
				h.assigned[o][k] = pinned
			case len(kindZones[k]) > 0:
				h.assigned[o][k] = kindZones[k][o%len(kindZones[k])]
			default:
				return nil, fmt.Errorf("%w: house %q has no %v-kind zone for occupant %d", ErrBadBlueprint, bp.Name, k, o)
			}
		}
	}
	links := bp.ActivityAppliances
	// Explicit link tables must resolve every name (a typo silently
	// dropping an appliance link is a correctness trap); the standard
	// fallback stays lenient so custom appliance subsets keep whichever
	// standard links still apply.
	strict := links != nil
	if links == nil {
		links = standardActivityAppliances()
	}
	if err := h.linkActivities(links, strict); err != nil {
		return nil, err
	}
	return h, nil
}

func standardZones(scale float64) []Zone {
	return []Zone{
		{ID: Outside, Name: "Outside", VolumeFt3: 0, AreaFt2: 0, MaxOccupancy: 1 << 20},
		{ID: Bedroom, Name: "Bedroom", Kind: Bedroom, VolumeFt3: 1080 * scale, AreaFt2: 120 * scale, MaxOccupancy: 3},
		{ID: Livingroom, Name: "Livingroom", Kind: Livingroom, VolumeFt3: 1620 * scale, AreaFt2: 180 * scale, MaxOccupancy: 6},
		{ID: Kitchen, Name: "Kitchen", Kind: Kitchen, VolumeFt3: 972 * scale, AreaFt2: 108 * scale, MaxOccupancy: 4},
		{ID: Bathroom, Name: "Bathroom", Kind: Bathroom, VolumeFt3: 486 * scale, AreaFt2: 54 * scale, MaxOccupancy: 2},
	}
}

// StandardAppliances returns the 13-appliance fit-out used by Table VII,
// installed in the canonical zones.
func StandardAppliances() []Appliance {
	return []Appliance{
		{ID: 0, Name: "Oven", Zone: Kitchen, PowerW: 2000, HeatFraction: 0.35, VoiceTriggerable: true},
		{ID: 1, Name: "Microwave", Zone: Kitchen, PowerW: 1100, HeatFraction: 0.25, VoiceTriggerable: true},
		{ID: 2, Name: "Dishwasher", Zone: Kitchen, PowerW: 1200, HeatFraction: 0.30, VoiceTriggerable: true},
		{ID: 3, Name: "Kettle", Zone: Kitchen, PowerW: 1500, HeatFraction: 0.40, VoiceTriggerable: true},
		{ID: 4, Name: "CoffeeMaker", Zone: Kitchen, PowerW: 900, HeatFraction: 0.35, VoiceTriggerable: true},
		{ID: 5, Name: "TV", Zone: Livingroom, PowerW: 150, HeatFraction: 0.90, VoiceTriggerable: true},
		{ID: 6, Name: "Stereo", Zone: Livingroom, PowerW: 80, HeatFraction: 0.90, VoiceTriggerable: true},
		{ID: 7, Name: "Computer", Zone: Livingroom, PowerW: 200, HeatFraction: 0.90, VoiceTriggerable: true},
		{ID: 8, Name: "GameConsole", Zone: Livingroom, PowerW: 120, HeatFraction: 0.90, VoiceTriggerable: true},
		{ID: 9, Name: "BedroomTV", Zone: Bedroom, PowerW: 100, HeatFraction: 0.90, VoiceTriggerable: true},
		{ID: 10, Name: "HairDryer", Zone: Bathroom, PowerW: 1200, HeatFraction: 0.60, VoiceTriggerable: true},
		{ID: 11, Name: "Washer", Zone: Bathroom, PowerW: 500, HeatFraction: 0.30, VoiceTriggerable: true},
		{ID: 12, Name: "Dryer", Zone: Bathroom, PowerW: 1800, HeatFraction: 0.40, VoiceTriggerable: true},
	}
}

// standardAppliancesFor retargets the standard fit-out onto a layout: each
// appliance lands in the first zone of its canonical kind. For the canonical
// layout this reproduces StandardAppliances exactly.
func standardAppliancesFor(kindZones [NumZones][]ZoneID) []Appliance {
	appls := StandardAppliances()
	out := appls[:0]
	for _, a := range appls {
		if zs := kindZones[a.Zone]; len(zs) > 0 {
			a.Zone = zs[0]
			out = append(out, a)
		}
	}
	return out
}

// standardActivityAppliances returns the canonical activity→appliance-name
// relationships of the standard fit-out.
func standardActivityAppliances() map[ActivityID][]string {
	return map[ActivityID][]string{
		PreparingBreakfast: {"Kettle", "CoffeeMaker"},
		PreparingLunch:     {"Microwave"},
		PreparingDinner:    {"Oven", "Microwave"},
		WashingDishes:      {"Dishwasher"},
		WatchingTV:         {"TV"},
		ListeningToMusic:   {"Stereo"},
		UsingInternet:      {"Computer"},
		Studying:           {"Computer"},
		Laundry:            {"Washer", "Dryer"},
		Shaving:            {"HairDryer"},
		HavingGuest:        {"TV"},
	}
}

// linkActivities resolves the activity→appliance relationships by appliance
// name, so custom inventories (subsets, duplicates across zones) link
// correctly. In strict mode every name must match an installed appliance.
func (h *House) linkActivities(links map[ActivityID][]string, strict bool) error {
	byName := make(map[string][]int, len(h.Appliances))
	for i, a := range h.Appliances {
		byName[a.Name] = append(byName[a.Name], i)
	}
	for act, names := range links {
		if act < 0 || int(act) >= NumActivities {
			return fmt.Errorf("%w: house %q links unknown activity %d", ErrBadBlueprint, h.Name, act)
		}
		var appls []int
		for _, name := range names {
			if strict && len(byName[name]) == 0 {
				return fmt.Errorf("%w: house %q links %v to unknown appliance %q", ErrBadBlueprint, h.Name, act, name)
			}
			appls = append(appls, byName[name]...)
		}
		h.activityAppliances[act] = appls
	}
	return nil
}

// AppliancesForActivity returns the appliance indices habitually on during
// the activity (empty for activities that use none).
func (h *House) AppliancesForActivity(a ActivityID) []int {
	if a < 0 || int(a) >= NumActivities {
		return nil
	}
	return h.activityAppliances[a]
}

// AppliancesInZone returns the indices of appliances installed in zone z.
func (h *House) AppliancesInZone(z ZoneID) []int {
	var out []int
	for i, a := range h.Appliances {
		if a.Zone == z {
			out = append(out, i)
		}
	}
	return out
}

// Zone returns the zone with the given id.
func (h *House) Zone(id ZoneID) Zone { return h.Zones[id] }

// KindOf returns the canonical kind of zone z. Out-of-range ids degrade to
// the canonical interpretation (z itself) so legacy callers probing the
// canonical layout keep their behaviour.
func (h *House) KindOf(z ZoneID) ZoneID {
	if z < 0 || int(z) >= len(h.Zones) {
		return z
	}
	return h.Zones[z].Kind
}

// ZoneForActivity returns the zone occupant o conducts the activity in —
// the per-house, per-occupant replacement for the canonical Activity.Zone
// lookup (a second bedroom's resident sleeps in their own room).
func (h *House) ZoneForActivity(occupant int, act ActivityID) ZoneID {
	k := ActivityByID(act).Zone
	if k == Outside || occupant < 0 || occupant >= len(h.assigned) {
		return k
	}
	return h.assigned[occupant][k]
}

// MostIntenseActivity returns the highest-MET activity conductible in zone
// z of this house — the kind-aware form of MostIntenseActivityInZone, which
// the attack planners use to maximise the believed demand of a falsified
// presence in any zone of any layout.
func (h *House) MostIntenseActivity(z ZoneID) ActivityID {
	return MostIntenseActivityInZone(h.KindOf(z))
}
