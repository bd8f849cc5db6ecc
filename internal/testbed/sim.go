// Package testbed simulates the paper's prototype validation testbed
// (Section VI, Figs 8-9): a 1/24-scale model house whose occupants and
// appliances are emulated by 5 W LED bulbs, cooled by 1.4 CFM supply fans,
// sensed by DHT-22-class temperature sensors, and supervised over an
// MQTT-style broker that a man-in-the-middle attacker can rewrite.
//
// The zones are deliberately NOT insulated from each other or the ambient
// lab — the paper observes the resulting dynamics are non-linear and learns
// them with a degree-2 polynomial regression at <2% error; this package
// reproduces both the plant and that identification step.
//
// The rig is built for a scenario house: NewForHouse scales any world from
// the scenario registry down to tabletop size (one testbed zone per
// conditioned zone, thermal mass derived from the zone's full-size volume),
// and New keeps the paper's canonical four-zone build (house A).
package testbed

import (
	"errors"
	"fmt"

	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/rng"
)

// Config parameterises the scaled plant.
type Config struct {
	// Scale is the linear down-scale factor (paper: 24).
	Scale float64
	// AmbientF is the lab temperature around (and supplying) the testbed.
	AmbientF float64
	// SetpointF is the zone target the controller holds.
	SetpointF float64
	// SupplyF is the chilled-plenum temperature the fans draw from — the
	// 1.4 CFM fans alone cannot remove a 5 W bulb's heat at a 3 °F rise,
	// so the testbed (like the full-size AHU) supplies cooled air.
	SupplyF float64
	// FanCFM is each zone's supply fan rating (paper: 1.4 CFM).
	FanCFM float64
	// FanPowerW is the electrical draw of a fan at full duty.
	FanPowerW float64
	// LEDPowerW is one emulation bulb's draw (paper: 5 W).
	LEDPowerW float64
	// SensorNoiseF is the DHT-22-like measurement noise (σ, °F).
	SensorNoiseF float64
	// Seed drives sensor noise.
	Seed uint64
}

// DefaultConfig returns the paper's testbed parameters.
func DefaultConfig() Config {
	return Config{
		Scale:        24,
		AmbientF:     72,
		SetpointF:    75,
		SupplyF:      56,
		FanCFM:       1.4,
		FanPowerW:    2.5,
		LEDPowerW:    5,
		SensorNoiseF: 0.4,
		Seed:         1,
	}
}

// Simulator is the scaled thermal plant. It is not safe for concurrent use.
type Simulator struct {
	cfg   Config
	house *home.House
	// TempF holds the true zone temperatures (conditioned zones only,
	// index = ZoneID − 1).
	TempF []float64
	// heatCapacity is the per-zone lumped capacitance in W·min/°F.
	heatCapacity []float64
	// coupling[i][j] is the inter-zone leak conductance (W/°F); adjacent
	// zones are separated by uninsulated 12-inch walls.
	coupling [][]float64
	// ambientLeak is each zone's conductance to the lab (W/°F).
	ambientLeak []float64
	next        []float64 // Step scratch
	noise       *rng.Source
}

// ErrBadConfig rejects non-physical configurations.
var ErrBadConfig = errors.New("testbed: Scale, FanCFM and LEDPowerW must be positive")

// New builds the paper's canonical testbed — ARAS house A scaled down —
// with all zones at ambient.
func New(cfg Config) (*Simulator, error) {
	return NewForHouse(cfg, home.MustHouse("A"))
}

// NewForHouse builds the scaled plant for any scenario house: one testbed
// zone per conditioned zone, with the lumped capacitance and ambient leak
// derived from the full-size zone volume, and the zones coupled in a linear
// chain of shared uninsulated walls (the Fig 8b layout generalized).
func NewForHouse(cfg Config, house *home.House) (*Simulator, error) {
	if cfg.Scale <= 0 || cfg.FanCFM <= 0 || cfg.LEDPowerW <= 0 {
		return nil, ErrBadConfig
	}
	n := len(house.Zones) - 1 // zone 0 is Outside
	if n < 1 {
		return nil, fmt.Errorf("testbed: house %s has no conditioned zones", house.Name)
	}
	s := &Simulator{
		cfg:          cfg,
		house:        house,
		TempF:        make([]float64, n),
		heatCapacity: make([]float64, n),
		ambientLeak:  make([]float64, n),
		next:         make([]float64, n),
		coupling:     make([][]float64, n),
		noise:        rng.New(cfg.Seed),
	}
	// Scaled volumes from the full-size house divided by Scale³, converted
	// to a capacitance: air ≈ 0.018 W·min/(ft³·°F), plus structure mass.
	for i := 0; i < n; i++ {
		s.TempF[i] = cfg.AmbientF
		vol := house.Zones[i+1].VolumeFt3 / (cfg.Scale * cfg.Scale * cfg.Scale / 24) // keep ~1 ft³ scale zones
		s.heatCapacity[i] = 0.6 + 1.2*vol
		s.ambientLeak[i] = 0.08 + 0.02*vol
		s.coupling[i] = make([]float64, n)
	}
	// Adjacency: consecutive zones share walls in the linear layout
	// (bedroom-livingroom, livingroom-kitchen, kitchen-bathroom in Fig 8b).
	for i := 0; i+1 < n; i++ {
		s.coupling[i][i+1] = 0.05
		s.coupling[i+1][i] = 0.05
	}
	return s, nil
}

// Zones returns the number of conditioned testbed zones.
func (s *Simulator) Zones() int { return len(s.TempF) }

// House returns the full-size house the testbed scales down.
func (s *Simulator) House() *home.House { return s.house }

// Inputs are one minute's actuation and load. Slices shorter than the zone
// count read as zero for the missing zones.
type Inputs struct {
	// LEDWatts is the emulation load per conditioned zone (occupants +
	// appliances rendered as lit bulbs).
	LEDWatts []float64
	// FanDuty is each zone's supply-fan duty in [0, 1].
	FanDuty []float64
}

// NewInputs returns a zeroed per-zone input frame for this plant.
func (s *Simulator) NewInputs() Inputs {
	return Inputs{LEDWatts: make([]float64, s.Zones()), FanDuty: make([]float64, s.Zones())}
}

// at reads xs[i], treating missing entries as zero.
func at(xs []float64, i int) float64 {
	if i < 0 || i >= len(xs) {
		return 0
	}
	return xs[i]
}

// Step advances the plant by one minute and returns the electrical energy
// consumed (Wh) during the step.
func (s *Simulator) Step(in Inputs) float64 {
	const sensible = 0.3167 // W per CFM·°F
	var energyWh float64
	next := s.next
	for i := range s.TempF {
		duty := clamp01(at(in.FanDuty, i))
		heat := at(in.LEDWatts, i) * 0.85 // bulbs radiate most of their draw
		cool := duty * s.cfg.FanCFM * (s.TempF[i] - s.cfg.SupplyF) * sensible
		if cool < 0 {
			cool = 0 // supply air warmer than the zone cannot cool it
		}
		// Non-insulated leakage: mildly non-linear in the temperature
		// difference (natural convection strengthens with ΔT), which is the
		// non-linearity the paper's regression has to learn.
		dAmb := s.cfg.AmbientF - s.TempF[i]
		leak := s.ambientLeak[i] * dAmb * (1 + 0.06*abs(dAmb))
		var inter float64
		for j := range s.TempF {
			inter += s.coupling[i][j] * (s.TempF[j] - s.TempF[i])
		}
		next[i] = s.TempF[i] + (heat-cool+leak+inter)/s.heatCapacity[i]
		// Electrical energy: bulbs, fan motor, and the plenum chiller work
		// to cool the moved air from ambient down to the supply temperature.
		chillW := duty * s.cfg.FanCFM * (s.cfg.AmbientF - s.cfg.SupplyF) * sensible
		if chillW < 0 {
			chillW = 0
		}
		energyWh += (at(in.LEDWatts, i) + duty*s.cfg.FanPowerW + chillW) / 60
	}
	copy(s.TempF, next)
	return energyWh
}

// ReadTempF returns the DHT-22-style noisy measurement for a zone.
func (s *Simulator) ReadTempF(zone home.ZoneID) (float64, error) {
	i, err := s.zoneIndex(zone)
	if err != nil {
		return 0, err
	}
	return s.TempF[i] + s.noise.Norm(0, s.cfg.SensorNoiseF), nil
}

// Reset returns all zones to ambient.
func (s *Simulator) Reset() {
	for i := range s.TempF {
		s.TempF[i] = s.cfg.AmbientF
	}
}

// Config returns the simulator's configuration.
func (s *Simulator) Config() Config { return s.cfg }

func (s *Simulator) zoneIndex(z home.ZoneID) (int, error) {
	if !z.Conditioned() || int(z) > s.Zones() {
		return 0, fmt.Errorf("testbed: zone %v is not a conditioned testbed zone", z)
	}
	return int(z) - 1, nil
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
