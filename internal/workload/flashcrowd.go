package workload

import (
	"fmt"

	"lira/internal/geo"
	"lira/internal/rng"
)

// FlashCrowdConfig parameterizes the seeded overload scenario the
// admission controller is chaos-tested and benchmarked against: a
// population of nodes reporting at a base rate, with a hotspot fraction
// that converges on one region of the space while the aggregate report
// rate ramps to a peak, holds, and decays back — the canonical
// flash-crowd shape (a stadium letting out, an incident on a highway).
type FlashCrowdConfig struct {
	// Nodes is the population size.
	Nodes int
	// HotspotFrac is the fraction of the population that belongs to the
	// crowd (drawn toward the hotspot center); the rest roam uniformly.
	// Zero selects 0.8.
	HotspotFrac float64
	// BaseRate and PeakRate are aggregate report rates in updates per
	// emitted tick, before and at the height of the crowd. BaseRate zero
	// selects Nodes/10; PeakRate zero selects 4×BaseRate.
	BaseRate, PeakRate float64
	// RampTicks, HoldTicks, DecayTicks shape the default envelope: rate
	// climbs linearly from BaseRate to PeakRate over RampTicks, holds at
	// PeakRate for HoldTicks, then decays linearly back over DecayTicks.
	// Zeros select 20/20/30. Ignored when Envelope is set explicitly.
	RampTicks, HoldTicks, DecayTicks int
	// Envelope overrides the canonical ramp-hold-decay profile with an
	// arbitrary piecewise-linear rate schedule, so catalog variants
	// (double peaks, cliffs, slow burns) are pure config. Empty selects
	// RampHoldDecay(BaseRate, PeakRate, RampTicks, HoldTicks, DecayTicks).
	Envelope Envelope
	// Speed is the node speed magnitude (units per second). Zero selects
	// one percent of the space diagonal per second.
	Speed float64
	// Seed drives every random choice; two generators with equal configs
	// emit identical sequences.
	Seed uint64
}

func (c *FlashCrowdConfig) fillDefaults(space geo.Rect) {
	if c.HotspotFrac <= 0 || c.HotspotFrac > 1 {
		c.HotspotFrac = 0.8
	}
	if c.BaseRate <= 0 {
		c.BaseRate = float64(c.Nodes) / 10
		if c.BaseRate < 1 {
			c.BaseRate = 1
		}
	}
	if c.PeakRate <= 0 {
		c.PeakRate = 4 * c.BaseRate
	}
	if c.RampTicks <= 0 {
		c.RampTicks = 20
	}
	if c.HoldTicks <= 0 {
		c.HoldTicks = 20
	}
	if c.DecayTicks <= 0 {
		c.DecayTicks = 30
	}
	if c.Speed <= 0 {
		diag := geo.Point{X: space.MinX, Y: space.MinY}.
			Dist(geo.Point{X: space.MaxX, Y: space.MaxY})
		c.Speed = diag / 100
	}
	if len(c.Envelope) == 0 {
		c.Envelope = RampHoldDecay(c.BaseRate, c.PeakRate,
			c.RampTicks, c.HoldTicks, c.DecayTicks)
	}
}

// FlashCrowd is a deterministic overload generator. Each call to Emit
// advances one tick: the envelope decides how many reports this tick
// carries, and each report comes from either a crowd node (position
// pulled toward the hotspot as the crowd phase progresses) or a roamer.
// All state is derived from the seed, so two generators with identical
// configs emit byte-identical update sequences — the reproducibility
// contract the admission chaos tests and the capacity planner lean on.
type FlashCrowd struct {
	cfg     FlashCrowdConfig
	space   geo.Rect
	hotspot geo.Point
	r       *rng.Rand
	tick    int

	pos []geo.Point // current position per node
	vel []geo.Vector
}

// NewFlashCrowd builds a generator over space. It returns an error when
// the population is non-positive or an explicit envelope is malformed.
func NewFlashCrowd(space geo.Rect, cfg FlashCrowdConfig) (*FlashCrowd, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("workload: flash crowd needs a positive population, got %d", cfg.Nodes)
	}
	cfg.fillDefaults(space)
	if err := cfg.Envelope.Validate(); err != nil {
		return nil, err
	}
	f := &FlashCrowd{
		cfg:   cfg,
		space: space,
		r:     rng.New(cfg.Seed),
		pos:   make([]geo.Point, cfg.Nodes),
		vel:   make([]geo.Vector, cfg.Nodes),
	}
	// The hotspot sits somewhere in the central half of the space.
	f.hotspot = geo.Point{
		X: f.r.Range(space.MinX+space.Width()/4, space.MaxX-space.Width()/4),
		Y: f.r.Range(space.MinY+space.Height()/4, space.MaxY-space.Height()/4),
	}
	for i := range f.pos {
		f.pos[i] = geo.Point{
			X: f.r.Range(space.MinX, space.MaxX),
			Y: f.r.Range(space.MinY, space.MaxY),
		}
	}
	return f, nil
}

// Hotspot returns the crowd's convergence point.
func (f *FlashCrowd) Hotspot() geo.Point { return f.hotspot }

// Motions visits every node's current position and velocity. It reads
// the motion arrays without touching the generator's rng stream, so a
// dense read between Emit calls cannot perturb the emitted sequence —
// the property the scenario traffic adapters rely on.
func (f *FlashCrowd) Motions(visit func(node int, pos geo.Point, vel geo.Vector)) {
	for i := range f.pos {
		visit(i, f.pos[i], f.vel[i])
	}
}

// Ticks returns the total envelope length, plus one leading and one
// trailing baseline tick.
func (f *FlashCrowd) Ticks() int {
	return f.cfg.Envelope.Ticks() + 2
}

// Rate returns the envelope's aggregate report rate at tick t: the
// envelope's base before it starts, the piecewise-linear schedule inside
// it, and its final rate after.
func (f *FlashCrowd) Rate(t int) float64 {
	return f.cfg.Envelope.Rate(t)
}

// Emit advances one tick and calls emit once per report this tick
// carries: node id, clamped position, and velocity. now is the model
// time stamped on the reports (the caller owns the clock). Crowd members
// drift toward the hotspot while the envelope is above base rate;
// roamers random-walk. The emission count is round(Rate(tick)).
func (f *FlashCrowd) Emit(now float64, emit func(node int, pos geo.Point, vel geo.Vector)) {
	t := f.tick
	f.tick++
	rate := f.Rate(t)
	n := int(rate + 0.5)
	crowdN := int(float64(f.cfg.Nodes) * f.cfg.HotspotFrac)
	surge := rate > f.cfg.Envelope.Base()
	for i := 0; i < n; i++ {
		var node int
		if surge && crowdN > 0 && f.r.Bool(f.cfg.HotspotFrac) {
			node = f.r.Intn(crowdN) // crowd members report disproportionately
		} else {
			node = f.r.Intn(f.cfg.Nodes)
		}
		var v geo.Vector
		if surge && node < crowdN {
			// Head toward the hotspot at full speed, with a little jitter.
			v = f.hotspot.Sub(f.pos[node]).Unit().Scale(f.cfg.Speed)
			v.X += f.r.Range(-f.cfg.Speed/4, f.cfg.Speed/4)
			v.Y += f.r.Range(-f.cfg.Speed/4, f.cfg.Speed/4)
		} else {
			v = geo.Vector{
				X: f.r.Range(-f.cfg.Speed, f.cfg.Speed),
				Y: f.r.Range(-f.cfg.Speed, f.cfg.Speed),
			}
		}
		f.pos[node] = f.space.ClampPoint(f.pos[node].Add(v))
		f.vel[node] = v
		emit(node, f.pos[node], v)
	}
}
