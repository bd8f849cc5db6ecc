package aras

import (
	"errors"
	"fmt"
	"io"
	"math"

	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/rng"
)

// GeneratorConfig parameterises the synthetic trace generator.
type GeneratorConfig struct {
	// Days is the number of days to generate (the paper uses 30).
	Days int
	// Seed makes generation reproducible.
	Seed uint64
	// IrregularProb is the per-day probability that an occupant has an
	// irregular day (heavier jitter, reordered blocks). Irregular days
	// supply the noise points DBSCAN prunes and K-Means absorbs.
	// Defaults to 0.08 when zero.
	IrregularProb float64
	// SummerMeanF is the mean outdoor temperature (°F); defaults to 84
	// (cooling-dominated season, as in the paper's energy experiments).
	SummerMeanF float64
	// Profiles supplies one schedule profile per occupant, in occupant
	// order — the scenario layer's replacement for the baked-in A/B worker
	// assumptions. Nil falls back to DefaultProfile(house.Name, o). When
	// set, its length must equal the house's occupant count.
	Profiles []ScheduleProfile
}

func (c GeneratorConfig) withDefaults() GeneratorConfig {
	if c.IrregularProb == 0 {
		c.IrregularProb = 0.08
	}
	if c.SummerMeanF == 0 {
		c.SummerMeanF = 84
	}
	return c
}

// ErrBadConfig is returned for invalid day counts: batch Generate requires
// Days > 0, the incremental Generator requires Days >= 0 (0 = unbounded).
var ErrBadConfig = errors.New("aras: invalid Days")

// ErrBadProfiles is returned when GeneratorConfig.Profiles does not match
// the house's occupant count.
var ErrBadProfiles = errors.New("aras: Profiles length must equal occupant count")

// ScheduleProfile describes an occupant's habitual daily schedule — the
// behaviour archetype the generator turns into a clusterable day plan. All
// times are minutes after midnight; all durations in minutes. Scenario
// specs carry one per occupant; the zero value is a homebody who never
// leaves, so sweeps can start from it and override anchors.
type ScheduleProfile struct {
	// Worker occupants leave for work on weekdays.
	Worker bool
	// WakeMean/WakeStd control the wake-up anchor.
	WakeMean, WakeStd float64
	// BedMean/BedStd control the bedtime anchor.
	BedMean, BedStd float64
	// ReturnMean anchors the weekday work window: workers go out after the
	// morning routine and return around this minute. LeaveMean records the
	// archetype's nominal departure time for description/derivation only —
	// the generator does not hold workers home until it (anchoring the
	// departure would alter the ARAS reproduction traces).
	LeaveMean, ReturnMean float64
	// ShowerMorning is the probability of a morning shower.
	ShowerMorning float64
	// EveningTVMean is the evening television block length.
	EveningTVMean float64
	// ChoresWeight scales how much daytime is spent on active chores
	// (cleaning, laundry) vs sedentary activities.
	ChoresWeight float64
}

// DefaultProfile returns the behaviour archetype for an occupant of a
// paper house. House A: Alice studies/works from home, Bob commutes.
// House B: both occupants are out most of the day (hence House B's lower
// benign and attacked costs throughout the paper's tables). Unknown
// (house, occupant) pairs get the commuter default.
func DefaultProfile(houseName string, occupant int) ScheduleProfile {
	switch {
	case houseName == "A" && occupant == 0: // Alice, home-based
		return ScheduleProfile{
			Worker:   false,
			WakeMean: 7*60 + 10, WakeStd: 18,
			BedMean: 23 * 60, BedStd: 25,
			ShowerMorning: 0.75,
			EveningTVMean: 95,
			ChoresWeight:  1.0,
		}
	case houseName == "A" && occupant == 1: // Bob, commuter
		return ScheduleProfile{
			Worker:   true,
			WakeMean: 6*60 + 40, WakeStd: 15,
			BedMean: 22*60 + 45, BedStd: 20,
			LeaveMean:     8*60 + 40,
			ReturnMean:    17*60 + 45,
			ShowerMorning: 0.85,
			EveningTVMean: 80,
			ChoresWeight:  0.5,
		}
	case houseName == "B" && occupant == 0: // Carol, long-hours commuter
		return ScheduleProfile{
			Worker:   true,
			WakeMean: 6*60 + 20, WakeStd: 15,
			BedMean: 22*60 + 30, BedStd: 20,
			LeaveMean:     7*60 + 50,
			ReturnMean:    18*60 + 30,
			ShowerMorning: 0.8,
			EveningTVMean: 60,
			ChoresWeight:  0.6,
		}
	default: // Dave, commuter with evening activities out
		return ScheduleProfile{
			Worker:   true,
			WakeMean: 7 * 60, WakeStd: 18,
			BedMean: 23*60 + 15, BedStd: 25,
			LeaveMean:     8*60 + 30,
			ReturnMean:    19*60 + 15,
			ShowerMorning: 0.7,
			EveningTVMean: 70,
			ChoresWeight:  0.4,
		}
	}
}

// block is one contiguous activity in the day plan.
type block struct {
	act home.ActivityID
	dur int
}

// Generator produces a trace one day at a time — the incremental core the
// streaming runtime pulls from instead of materializing a whole multi-day
// trace up front. It owns the same forked per-occupant and weather RNG
// streams the batch path uses, so the sequence of days it emits is
// byte-identical to a single Generate call with the same configuration.
// A Generator is not safe for concurrent use.
type Generator struct {
	house      *home.House
	cfg        GeneratorConfig
	occRngs    []*rng.Source
	weatherRng *rng.Source
	day        int
	// plan is planDay's reused block list.
	plan []block
	// skip is the day SkipDay rasterizes into and discards, allocated by
	// the first SkipDay call.
	skip *Day
}

// NewGenerator validates the configuration and seeds the day stream.
// cfg.Days bounds the stream (NextDay returns io.EOF after that many days);
// Days == 0 leaves the stream unbounded, which only the incremental API
// supports — batch Generate still requires a positive day count.
func NewGenerator(house *home.House, cfg GeneratorConfig) (*Generator, error) {
	if cfg.Days < 0 {
		return nil, ErrBadConfig
	}
	if cfg.Profiles != nil && len(cfg.Profiles) != len(house.Occupants) {
		return nil, fmt.Errorf("%w: %d profiles for %d occupants", ErrBadProfiles, len(cfg.Profiles), len(house.Occupants))
	}
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed)
	g := &Generator{
		house:   house,
		cfg:     cfg,
		occRngs: make([]*rng.Source, len(house.Occupants)),
	}
	for o := range g.occRngs {
		g.occRngs[o] = r.Fork()
	}
	g.weatherRng = r.Fork()
	return g, nil
}

// House returns the world the generator emits days for.
func (g *Generator) House() *home.House { return g.house }

// DayIndex returns the index of the day the next NextDay call emits.
func (g *Generator) DayIndex() int { return g.day }

// NextDay plans, rasterizes, and returns one day of ground truth with its
// weather. It returns io.EOF once the configured day count is exhausted.
func (g *Generator) NextDay() (Day, Weather, error) {
	day := NewDay(len(g.house.Occupants), len(g.house.Appliances))
	w := Weather{
		TempF:  make([]float64, SlotsPerDay),
		CO2PPM: make([]float64, SlotsPerDay),
	}
	if err := g.NextDayInto(&day, &w); err != nil {
		return Day{}, Weather{}, err
	}
	return day, w, nil
}

// NextDayInto is NextDay writing into caller-owned buffers — the streaming
// hot path reuses one Day/Weather pair per home instead of allocating ~23KB
// per home-day. The buffers must have the house's occupant/appliance shape
// (NewDay/make as in NextDay); contents are fully overwritten. The emitted
// values are byte-identical to NextDay's: both consume the same RNG streams
// in the same order.
func (g *Generator) NextDayInto(day *Day, w *Weather) error {
	if g.cfg.Days > 0 && g.day >= g.cfg.Days {
		return io.EOF
	}
	if len(day.Zone) != len(g.house.Occupants) || len(day.Appliance) != len(g.house.Appliances) {
		return fmt.Errorf("aras: NextDayInto: day shaped %d/%d, house has %d occupants / %d appliances",
			len(day.Zone), len(day.Appliance), len(g.house.Occupants), len(g.house.Appliances))
	}
	// rasterize overwrites every Zone/Act slot but only ORs appliance runs in.
	for _, col := range day.Appliance {
		clear(col)
	}
	g.planOccupants(day)
	genWeatherInto(g.cfg.SummerMeanF, g.weatherRng, w)
	g.day++
	return nil
}

// SkipDay advances the stream past one day without emitting it, leaving
// every RNG stream exactly where NextDay would: the occupants' days are
// planned and rasterized into a scratch day, because how many draws a day
// takes depends on its plan, and the weather stream, whose draw count is
// fixed, only advances. It returns io.EOF once the configured day count is
// exhausted. Beyond the scratch day, which the first call allocates, and
// the occasional growth of the reused plan buffer, a skip allocates
// nothing.
func (g *Generator) SkipDay() error {
	if g.cfg.Days > 0 && g.day >= g.cfg.Days {
		return io.EOF
	}
	if g.skip == nil {
		d := NewDay(len(g.house.Occupants), len(g.house.Appliances))
		g.skip = &d
	}
	g.planOccupants(g.skip)
	for range weatherDraws {
		g.weatherRng.Uint64()
	}
	g.day++
	return nil
}

// planOccupants plans and rasterizes every occupant's day g.day into day,
// drawing from each occupant's RNG stream.
func (g *Generator) planOccupants(day *Day) {
	weekday := g.day%7 < 5
	for o := range g.house.Occupants {
		var rt ScheduleProfile
		if g.cfg.Profiles != nil {
			rt = g.cfg.Profiles[o]
		} else {
			rt = DefaultProfile(g.house.Name, o)
		}
		irregular := g.occRngs[o].Bool(g.cfg.IrregularProb)
		g.plan = planDay(g.plan[:0], rt, weekday, irregular, g.occRngs[o])
		rasterize(g.house, g.plan, day, o, g.occRngs[o])
	}
}

// Generate produces a synthetic trace for the house by draining the
// incremental Generator — the batch path is a loop over NextDay, so the two
// are equivalent by construction. Schedule profiles come from cfg.Profiles
// (the scenario layer); a nil Profiles falls back to the paper houses'
// default archetypes.
func Generate(house *home.House, cfg GeneratorConfig) (*Trace, error) {
	if cfg.Days <= 0 {
		return nil, ErrBadConfig
	}
	g, err := NewGenerator(house, cfg)
	if err != nil {
		return nil, err
	}
	tr := &Trace{
		House:   house,
		Days:    make([]Day, cfg.Days),
		Weather: make([]Weather, cfg.Days),
	}
	for d := 0; d < cfg.Days; d++ {
		tr.Days[d], tr.Weather[d], err = g.NextDay()
		if err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// planDay builds the ordered block list for one occupant-day, beginning at
// midnight (asleep) and covering all 1440 minutes, appending it to plan.
func planDay(plan []block, rt ScheduleProfile, weekday, irregular bool, r *rng.Source) []block {
	jit := 1.0
	if irregular {
		jit = 3.0
	}
	norm := func(mean, std float64) int {
		v := r.Norm(mean, std*jit)
		if v < 1 {
			v = 1
		}
		return int(v)
	}
	total := 0
	add := func(act home.ActivityID, dur int) {
		if dur <= 0 {
			return
		}
		if total+dur > SlotsPerDay {
			dur = SlotsPerDay - total
		}
		if dur <= 0 {
			return
		}
		plan = append(plan, block{act, dur})
		total += dur
	}
	// padUntil inserts a filler activity so the next block starts near the
	// anchor minute.
	padUntil := func(anchor int, filler home.ActivityID) {
		if anchor > total {
			add(filler, anchor-total)
		}
	}

	wake := norm(rt.WakeMean, rt.WakeStd)
	add(home.Sleeping, wake)
	// Morning routine.
	add(home.Toileting, norm(8, 2))
	if r.Bool(rt.ShowerMorning) {
		add(home.HavingShower, norm(14, 3))
	}
	add(home.BrushingTeeth, norm(3, 1))
	add(home.ChangingClothes, norm(5, 2))
	add(home.PreparingBreakfast, norm(17, 4))
	add(home.HavingBreakfast, norm(15, 4))

	if rt.Worker && weekday {
		// Out for the work day.
		ret := norm(rt.ReturnMean, 25)
		padUntil(ret, home.GoingOut)
	} else {
		// Home day: anchored lunch, daytime activity mix.
		lunchAt := norm(12*60+20, 15)
		fillDaytime(rt, r, lunchAt, add, &total)
		padUntil(lunchAt, home.UsingInternet)
		add(home.PreparingLunch, norm(16, 4))
		add(home.HavingLunch, norm(20, 5))
		add(home.WashingDishes, norm(8, 2))
		afternoonEnd := norm(17*60+50, 20)
		fillDaytime(rt, r, afternoonEnd, add, &total)
		padUntil(afternoonEnd, home.WatchingTV)
	}

	// Evening: dinner, leisure, night routine, bed.
	add(home.PreparingDinner, norm(24, 5))
	add(home.HavingDinner, norm(25, 5))
	add(home.WashingDishes, norm(10, 3))
	add(home.WatchingTV, norm(rt.EveningTVMean, 20))
	if r.Bool(0.6) {
		add(home.UsingInternet, norm(35, 12))
	}
	if r.Bool(0.25) {
		add(home.HavingConversation, norm(20, 8))
	}
	add(home.Toileting, norm(6, 2))
	add(home.BrushingTeeth, norm(3, 1))
	bed := norm(rt.BedMean, rt.BedStd)
	padUntil(bed, home.ReadingBook)
	// Sleep to midnight.
	add(home.Sleeping, SlotsPerDay-total)
	return plan
}

// fillDaytime adds a few randomly chosen home-day activities until close to
// the anchor minute.
func fillDaytime(rt ScheduleProfile, r *rng.Source, anchor int, add func(home.ActivityID, int), total *int) {
	sedentary := []home.ActivityID{
		home.UsingInternet, home.WatchingTV, home.ReadingBook,
		home.Studying, home.TalkingOnPhone, home.ListeningToMusic, home.HavingSnack,
	}
	active := []home.ActivityID{home.Cleaning, home.Laundry, home.Napping}
	for *total < anchor-20 {
		var act home.ActivityID
		if r.Bool(0.22 * rt.ChoresWeight) {
			act = active[r.Intn(len(active))]
		} else {
			act = sedentary[r.Intn(len(sedentary))]
		}
		var dur int
		switch act {
		case home.Napping:
			dur = int(r.Norm(55, 15))
		case home.Laundry:
			dur = int(r.Norm(25, 6))
		case home.HavingSnack:
			dur = int(r.Norm(12, 3))
		default:
			dur = int(r.Norm(45, 15))
		}
		if dur < 3 {
			dur = 3
		}
		if *total+dur > anchor {
			dur = anchor - *total
		}
		add(act, dur)
	}
}

// rasterize writes the plan into the day's slot arrays and switches linked
// appliances on during activity blocks. Zones come from the house's
// per-occupant activity assignment, so multi-bedroom layouts place each
// occupant in their own room.
func rasterize(house *home.House, plan []block, day *Day, occupant int, r *rng.Source) {
	t := 0
	for _, b := range plan {
		zone := house.ZoneForActivity(occupant, b.act)
		for i := 0; i < b.dur && t < SlotsPerDay; i, t = i+1, t+1 {
			day.Zone[occupant][t] = zone
			day.Act[occupant][t] = b.act
		}
		// Appliances linked to the activity run for (most of) the block.
		for _, ai := range house.AppliancesForActivity(b.act) {
			runStart := t - b.dur
			runLen := b.dur
			// Short-cycle appliances (kettle, coffee maker, hair dryer) run
			// only a few minutes.
			switch house.Appliances[ai].Name {
			case "Kettle", "CoffeeMaker":
				runLen = min(runLen, 4+r.Intn(3))
			case "HairDryer":
				runLen = min(runLen, 3+r.Intn(3))
			case "Microwave":
				runLen = min(runLen, 3+r.Intn(5))
			}
			SetRun(day.Appliance[ai], max(runStart, 0), min(runStart+runLen, SlotsPerDay))
		}
	}
	// Safety: fill any remaining slots as sleeping in the occupant's bedroom.
	bed := house.ZoneForActivity(occupant, home.Sleeping)
	for ; t < SlotsPerDay; t++ {
		day.Zone[occupant][t] = bed
		day.Act[occupant][t] = home.Sleeping
	}
}

// diurnalCos[t] is the 8°F-amplitude diurnal sinusoid term (peaking
// mid-afternoon) of the outdoor temperature curve. The phase depends only on
// the minute-of-day, so the table holds exactly the values the per-slot
// 8*math.Cos(phase) expression produced.
var diurnalCos = func() *[SlotsPerDay]float64 {
	var tab [SlotsPerDay]float64
	for t := 0; t < SlotsPerDay; t++ {
		phase := 2 * math.Pi * float64(t-15*60) / SlotsPerDay
		tab[t] = 8 * math.Cos(phase)
	}
	return &tab
}()

// weatherDraws is how many Uint64 draws genWeatherInto takes from its
// stream: 1 + 2·SlotsPerDay Norm calls of two draws each.
const weatherDraws = 2 * (1 + 2*SlotsPerDay)

// genWeatherInto produces a diurnal outdoor temperature curve (sinusoid
// peaking mid-afternoon plus a random daily offset and minute noise) and a
// nearly constant outdoor CO2 level around 420 ppm, into caller-owned
// SlotsPerDay buffers (allocated if nil or mis-sized). It takes exactly
// weatherDraws draws, which SkipDay relies on.
func genWeatherInto(meanF float64, r *rng.Source, w *Weather) {
	if len(w.TempF) != SlotsPerDay {
		w.TempF = make([]float64, SlotsPerDay)
	}
	if len(w.CO2PPM) != SlotsPerDay {
		w.CO2PPM = make([]float64, SlotsPerDay)
	}
	dailyOffset := r.Norm(0, 2.5)
	base := meanF + dailyOffset
	for t := 0; t < SlotsPerDay; t++ {
		w.TempF[t] = base + diurnalCos[t] + r.Norm(0, 0.2)
		w.CO2PPM[t] = 420 + r.Norm(0, 1.5)
	}
}
