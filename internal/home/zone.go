// Package home models the smart-home domain of the SHATTER paper: zones,
// occupants, the 27 ARAS activities with activity-specific metabolic CO2 and
// heat generation rates (Persily & de Jonge, paper reference [20]), and the
// smart appliances whose status feeds both the activity-aware DCHVAC
// controller and the appliance-triggering attack surface.
package home

import "fmt"

// ZoneID indexes the zones of an ARAS-style home. Zone 0 is "outside the
// home" (no conditioning); zones 1-4 are the conditioned spaces, matching
// the paper's case-study numbering (Z-1 Bedroom … Z-4 Bathroom). It is a
// byte wide, so a house has at most MaxZones zones; it is signed so that
// ZoneID(-1) can mark "no zone" and JSON holds it as a number.
type ZoneID int8

// MaxZones bounds a house's zone count, Outside included: BuildHouse
// rejects a larger blueprint, so every zone ID and the zone count itself
// fit a ZoneID.
const MaxZones = 127

// The canonical ARAS zone layout.
const (
	Outside ZoneID = iota
	Bedroom
	Livingroom
	Kitchen
	Bathroom
)

// NumZones is the number of canonical zones including Outside.
const NumZones = 5

// zoneNames is indexed by ZoneID.
var zoneNames = [...]string{"Outside", "Bedroom", "Livingroom", "Kitchen", "Bathroom"}

// String returns the zone's human-readable name.
func (z ZoneID) String() string {
	if z < 0 || int(z) >= len(zoneNames) {
		return fmt.Sprintf("Zone(%d)", int(z))
	}
	return zoneNames[z]
}

// Conditioned reports whether the zone is served by the HVAC system.
func (z ZoneID) Conditioned() bool { return z != Outside }

// Zone describes one conditioned (or outside) space of the home.
type Zone struct {
	ID ZoneID
	// Name is the display name ("Bedroom").
	Name string
	// Kind classifies the zone by the canonical ARAS space it behaves like
	// (Bedroom, Livingroom, Kitchen, or Bathroom, expressed as the canonical
	// ZoneID). Activities whose canonical zone matches the kind are conducted
	// there, which is how houses with more zones than the ARAS pair (second
	// bedrooms, extra bathrooms) map the 27 activities onto their layout.
	// BuildHouse normalises a zero Kind on a conditioned canonical zone to
	// the zone's own ID, so the ARAS houses keep Kind == ID.
	Kind ZoneID
	// VolumeFt3 is the air volume in cubic feet (P^V_z in the paper).
	VolumeFt3 float64
	// AreaFt2 is the floor area in square feet, used by the ASHRAE
	// baseline's area-based ventilation term.
	AreaFt2 float64
	// MaxOccupancy is the rule-based capacity bound (BIoTA-style
	// verification rule).
	MaxOccupancy int
}
