package stream

import (
	"errors"

	"github.com/acyd-lab/shatter/internal/attack"
	"github.com/acyd-lab/shatter/internal/home"
)

// Injector applies a precomputed attack.Plan to a home's stream in flight.
// Planning stays offline (the optimiser needs its horizon), but execution
// is live: RewriteBlock runs the plan's day kernel, attack.Plan.FalsifyDay
// (the one batch attack.EvaluateImpact runs), on each block's columns —
// reported occupancy from the plan, really triggered appliances switched on
// in the truth, and forged δ^D statuses in the believed ones. Days beyond
// the plan's horizon pass through truthfully.
type Injector struct {
	house *home.House
	plan  *attack.Plan
}

// ErrNilInjector guards construction.
var ErrNilInjector = errors.New("stream: nil house or plan")

// NewInjector builds the live injector for a home's plan.
func NewInjector(h *home.House, plan *attack.Plan) (*Injector, error) {
	if h == nil || plan == nil {
		return nil, ErrNilInjector
	}
	return &Injector{house: h, plan: plan}, nil
}

// RewriteBlock falsifies one whole day block in place through the plan's
// day kernel. Blocks beyond the plan's horizon pass through truthfully.
func (inj *Injector) RewriteBlock(b *DayBlock) {
	in := b.dayInput()
	inj.plan.FalsifyDay(inj.house, b.Day, &in)
}
