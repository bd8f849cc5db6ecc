package home

import "fmt"

// ActivityID indexes the 27 ARAS activities. Activity 0 (GoingOut) means
// the occupant is outside the home. Like ZoneID it is a signed byte.
type ActivityID int8

// The 27 ARAS activity labels (Alemdar et al., paper reference [5]).
const (
	GoingOut ActivityID = iota
	PreparingBreakfast
	HavingBreakfast
	PreparingLunch
	HavingLunch
	PreparingDinner
	HavingDinner
	WashingDishes
	HavingSnack
	Sleeping
	WatchingTV
	Studying
	HavingShower
	Toileting
	Napping
	UsingInternet
	ReadingBook
	Laundry
	Shaving
	BrushingTeeth
	TalkingOnPhone
	ListeningToMusic
	Cleaning
	HavingConversation
	HavingGuest
	ChangingClothes
	Other
)

// NumActivities is the number of ARAS activity labels.
const NumActivities = 27

// Activity describes the physiological and spatial profile of one activity.
type Activity struct {
	ID   ActivityID
	Name string
	// MET is the metabolic-equivalent intensity. Persily & de Jonge [20]
	// give CO2 generation ≈ 0.0042 L/s and sensible heat ≈ 75 W per MET
	// for an average adult; both scale linearly with MET and with the
	// occupant's demographics factor.
	MET float64
	// Zone is the zone in which the activity is conducted.
	Zone ZoneID
	// Appliances lists appliance indices (into House.Appliances) that the
	// activity habitually switches on — the activity-appliance relationship
	// the SHATTER controller exploits (Section II reason 2).
	Appliances []int
}

// Per-MET physiological rates for an average adult (Persily & de Jonge).
const (
	// CO2LPerMinPerMET is CO2 generation in litres/minute at 1 MET.
	CO2LPerMinPerMET = 0.252
	// SensibleHeatWPerMET is sensible heat in watts at 1 MET.
	SensibleHeatWPerMET = 75.0
	// LitersPerFt3 converts litres to cubic feet for zone mass balances.
	LitersPerFt3 = 28.3168
)

// CO2Ft3PerMin returns the activity's CO2 generation in ft³/min for an
// occupant with the given demographics factor (P^CE in the paper).
func (a Activity) CO2Ft3PerMin(demographics float64) float64 {
	return a.MET * demographics * CO2LPerMinPerMET / LitersPerFt3
}

// HeatW returns the activity's sensible heat in watts for an occupant with
// the given demographics factor (P^HR in the paper).
func (a Activity) HeatW(demographics float64) float64 {
	return a.MET * demographics * SensibleHeatWPerMET
}

// String returns the activity name.
func (a ActivityID) String() string {
	if a < 0 || int(a) >= len(activityTable) {
		return fmt.Sprintf("Activity(%d)", int(a))
	}
	return activityTable[a].Name
}

// activityTable defines the canonical 27 activities. MET values follow the
// Compendium of Physical Activities; zone assignments follow the ARAS
// testbed layout. Appliance links are filled in by house construction
// (appliance indices are house-specific).
var activityTable = [NumActivities]Activity{
	GoingOut:           {ID: GoingOut, Name: "GoingOut", MET: 0, Zone: Outside},
	PreparingBreakfast: {ID: PreparingBreakfast, Name: "PreparingBreakfast", MET: 2.5, Zone: Kitchen},
	HavingBreakfast:    {ID: HavingBreakfast, Name: "HavingBreakfast", MET: 1.5, Zone: Kitchen},
	PreparingLunch:     {ID: PreparingLunch, Name: "PreparingLunch", MET: 2.5, Zone: Kitchen},
	HavingLunch:        {ID: HavingLunch, Name: "HavingLunch", MET: 1.5, Zone: Kitchen},
	PreparingDinner:    {ID: PreparingDinner, Name: "PreparingDinner", MET: 3.3, Zone: Kitchen},
	HavingDinner:       {ID: HavingDinner, Name: "HavingDinner", MET: 1.5, Zone: Kitchen},
	WashingDishes:      {ID: WashingDishes, Name: "WashingDishes", MET: 2.3, Zone: Kitchen},
	HavingSnack:        {ID: HavingSnack, Name: "HavingSnack", MET: 1.4, Zone: Livingroom},
	Sleeping:           {ID: Sleeping, Name: "Sleeping", MET: 0.95, Zone: Bedroom},
	WatchingTV:         {ID: WatchingTV, Name: "WatchingTV", MET: 1.0, Zone: Livingroom},
	Studying:           {ID: Studying, Name: "Studying", MET: 1.3, Zone: Livingroom},
	HavingShower:       {ID: HavingShower, Name: "HavingShower", MET: 2.0, Zone: Bathroom},
	Toileting:          {ID: Toileting, Name: "Toileting", MET: 1.5, Zone: Bathroom},
	Napping:            {ID: Napping, Name: "Napping", MET: 0.95, Zone: Bedroom},
	UsingInternet:      {ID: UsingInternet, Name: "UsingInternet", MET: 1.3, Zone: Livingroom},
	ReadingBook:        {ID: ReadingBook, Name: "ReadingBook", MET: 1.3, Zone: Livingroom},
	Laundry:            {ID: Laundry, Name: "Laundry", MET: 2.0, Zone: Bathroom},
	Shaving:            {ID: Shaving, Name: "Shaving", MET: 1.8, Zone: Bathroom},
	BrushingTeeth:      {ID: BrushingTeeth, Name: "BrushingTeeth", MET: 2.0, Zone: Bathroom},
	TalkingOnPhone:     {ID: TalkingOnPhone, Name: "TalkingOnPhone", MET: 1.4, Zone: Livingroom},
	ListeningToMusic:   {ID: ListeningToMusic, Name: "ListeningToMusic", MET: 1.0, Zone: Livingroom},
	Cleaning:           {ID: Cleaning, Name: "Cleaning", MET: 3.3, Zone: Livingroom},
	HavingConversation: {ID: HavingConversation, Name: "HavingConversation", MET: 1.5, Zone: Livingroom},
	HavingGuest:        {ID: HavingGuest, Name: "HavingGuest", MET: 1.5, Zone: Livingroom},
	ChangingClothes:    {ID: ChangingClothes, Name: "ChangingClothes", MET: 2.0, Zone: Bedroom},
	Other:              {ID: Other, Name: "Other", MET: 1.5, Zone: Livingroom},
}

// Activities returns a copy of the canonical activity table.
func Activities() []Activity {
	out := make([]Activity, NumActivities)
	copy(out, activityTable[:])
	return out
}

// ActivityByID returns the canonical profile for id.
func ActivityByID(id ActivityID) Activity {
	if id < 0 || int(id) >= NumActivities {
		return Activity{ID: id, Name: id.String(), MET: 1.2, Zone: Livingroom}
	}
	return activityTable[id]
}

// ActivitiesInZone returns all activity ids conducted in zone z.
func ActivitiesInZone(z ZoneID) []ActivityID {
	var out []ActivityID
	for _, a := range activityTable {
		if a.Zone == z {
			out = append(out, a.ID)
		}
	}
	return out
}

// mostIntenseInZone caches MostIntenseActivityInZone per zone — the attack
// planners query it for every falsified occupant-slot.
var mostIntenseInZone = func() [NumZones]ActivityID {
	var out [NumZones]ActivityID
	for z := ZoneID(0); z < NumZones; z++ {
		best, bestMET := Other, -1.0
		for _, a := range activityTable {
			if a.Zone == z && a.MET > bestMET {
				best, bestMET = a.ID, a.MET
			}
		}
		out[z] = best
	}
	return out
}()

// MostIntenseActivityInZone returns the activity in z with the highest MET —
// the activity a greedy attacker reports to maximise instantaneous demand
// (Algorithm 2).
func MostIntenseActivityInZone(z ZoneID) ActivityID {
	if z < 0 || z >= NumZones {
		return Other
	}
	return mostIntenseInZone[z]
}
