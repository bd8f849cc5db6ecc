// Package stream is the incremental runtime of the SHATTER reproduction:
// trace generation, HVAC control, attack injection, and anomaly detection
// all advance one home-day at a time over struct-of-arrays day blocks
// instead of materializing whole multi-day traces. Every streaming path is
// equivalence-locked to its batch counterpart — replaying a house through
// the stream reproduces the batch trace, controller costs, and ADM verdicts
// byte-for-byte — so the batch experiment suite and the fleet service are
// two shells over the same core. The per-slot Slot view (Home.Ingest and
// the sources' Next) is the reference the day-block kernels are locked
// against; no transport moves it.
//
// The layer stack:
//
//	Source    → day blocks (aras.Generator or a recorded Trace)
//	Injector  → applies an attack.Plan to the blocks in flight
//	Home      → hvac.Sim day stepper + adm.Detector per home
//	Pipe      → optional MQTT transport between Source and Home
//
// The package is one home's data plane; internal/fleetd supervises fleets
// of homes over it.
package stream

import (
	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/hvac"
)

// OccupantReading is one occupant's sensed location and activity at a slot.
type OccupantReading struct {
	Zone     home.ZoneID     `json:"z"`
	Activity home.ActivityID `json:"a"`
}

// Slot is one minute of a home's sensor traffic — the per-slot reference
// view of a DayBlock column, not a bus frame. It carries the ground truth
// alongside the reported view: the two coincide until an Injector falsifies
// the reported half (sensor spoofing never changes the truth, and
// really-triggered appliances change both).
type Slot struct {
	// Home identifies the emitting home on the fleet bus.
	Home string `json:"home,omitempty"`
	// Day and Index locate the slot (Index is the minute of day).
	Day   int `json:"day"`
	Index int `json:"slot"`
	// OutdoorTempF and OutdoorCO2PPM are the slot's weather.
	OutdoorTempF  float64 `json:"tempF"`
	OutdoorCO2PPM float64 `json:"co2"`
	// True is the ground-truth occupancy; TrueAppliance the real electrical
	// state of each appliance.
	True          []OccupantReading `json:"true"`
	TrueAppliance []bool            `json:"trueAppl"`
	// Reported is what the sensors claim; ReportedAppliance the believed
	// appliance statuses (forged δ^D statuses included under attack).
	Reported          []OccupantReading `json:"rep"`
	ReportedAppliance []bool            `json:"repAppl"`
}

// Action is a controller's per-slot decision event: the airflow demands the
// supervisory controller publishes back to the zone actuators, with the
// slot's metered energy and cost.
type Action struct {
	Home    string        `json:"home,omitempty"`
	Day     int           `json:"day"`
	Index   int           `json:"slot"`
	Demands []hvac.Demand `json:"demands"`
	KWh     float64       `json:"kWh"`
	CostUSD float64       `json:"costUSD"`
}

// ensure sizes the slot's slices for a home with the given occupant and
// appliance counts, reusing backing storage.
func (s *Slot) ensure(occupants, appliances int) {
	s.True = growReadings(s.True, occupants)
	s.Reported = growReadings(s.Reported, occupants)
	s.TrueAppliance = growBools(s.TrueAppliance, appliances)
	s.ReportedAppliance = growBools(s.ReportedAppliance, appliances)
}

// mirrorTruth copies the ground truth into the reported view (the benign
// state an Injector then perturbs).
func (s *Slot) mirrorTruth() {
	copy(s.Reported, s.True)
	copy(s.ReportedAppliance, s.TrueAppliance)
}

// SensorEvents counts the individual sensor measurements the frame carries
// (occupancy readings plus appliance statuses) — the unit the fleet
// throughput metrics report.
func (s *Slot) SensorEvents() int {
	return len(s.Reported) + len(s.ReportedAppliance)
}

func growReadings(b []OccupantReading, n int) []OccupantReading {
	if cap(b) < n {
		return make([]OccupantReading, n)
	}
	return b[:n]
}

func growBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	return b[:n]
}
