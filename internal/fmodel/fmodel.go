// Package fmodel implements the update reduction function f(Δ) of §2.1 and
// its κ-segment non-increasing piece-wise-linear approximation from §3.3.3.
//
// For an inaccuracy threshold Δ ∈ [Δ⊢, Δ⊣], f(Δ) is the number of position
// updates received relative to Δ = Δ⊢ (so f(Δ⊢) = 1 and f is
// non-increasing). The GREEDYINCREMENT optimality guarantee (Theorem 3.1)
// holds exactly for the piece-wise-linear approximation, so the Curve type
// here is the representation the optimizer consumes. A curve is obtained
// either by calibration — replaying a trace sample under κ+1 thresholds and
// counting updates, reproducing the paper's Figure 1 — or from the analytic
// hyperbolic default (update rate ∝ 1/Δ for linear dead reckoning, which
// has the same steep-then-flat shape as Figure 1).
package fmodel

import (
	"fmt"

	"lira/internal/geo"
	"lira/internal/motion"
)

// Curve is a non-increasing piece-wise-linear update reduction function
// over [MinDelta, MaxDelta] with equal-width segments.
type Curve struct {
	minDelta, maxDelta float64
	ys                 []float64 // κ+1 knot values, ys[0] == 1
	// width and rates are fixed at construction: GREEDYINCREMENT reads
	// Rate twice per step, and deriving them there costs two divisions.
	width float64   // c_Δ = (Δ⊣ − Δ⊢)/κ
	rates []float64 // −slope of each of the κ segments
}

// NewCurve builds a curve from κ+1 knot values sampled at equally spaced
// thresholds from minDelta to maxDelta. The values are normalized so the
// first knot equals 1 and clamped to be non-increasing (measurement noise
// in a calibration run must not produce a locally increasing f, which
// would give a negative shedding rate).
func NewCurve(minDelta, maxDelta float64, knots []float64) (*Curve, error) {
	if !(minDelta > 0) || !(maxDelta > minDelta) {
		return nil, fmt.Errorf("fmodel: invalid threshold range [%v, %v]", minDelta, maxDelta)
	}
	if len(knots) < 2 {
		return nil, fmt.Errorf("fmodel: need at least 2 knots, got %d", len(knots))
	}
	if !(knots[0] > 0) {
		return nil, fmt.Errorf("fmodel: first knot must be positive, got %v", knots[0])
	}
	ys := make([]float64, len(knots))
	for i, k := range knots {
		ys[i] = k / knots[0]
	}
	for i := 1; i < len(ys); i++ {
		if ys[i] > ys[i-1] {
			ys[i] = ys[i-1]
		}
		if ys[i] < 0 {
			ys[i] = 0
		}
	}
	c := &Curve{minDelta: minDelta, maxDelta: maxDelta, ys: ys, rates: make([]float64, len(ys)-1)}
	c.width = (maxDelta - minDelta) / float64(len(c.rates))
	for i := range c.rates {
		c.rates[i] = (ys[i] - ys[i+1]) / c.width
	}
	return c, nil
}

// Hyperbolic returns the analytic default curve with κ segments:
// f(Δ) = Δ⊢/Δ, the shape of update counts under linear dead reckoning
// when model deviation grows roughly linearly with time.
func Hyperbolic(minDelta, maxDelta float64, segments int) *Curve {
	if segments < 1 {
		segments = 1
	}
	knots := make([]float64, segments+1)
	for i := range knots {
		d := minDelta + (maxDelta-minDelta)*float64(i)/float64(segments)
		knots[i] = minDelta / d
	}
	c, err := NewCurve(minDelta, maxDelta, knots)
	if err != nil {
		panic(err) // impossible: inputs are constructed valid
	}
	return c
}

// MinDelta returns Δ⊢, the ideal position-update resolution.
func (c *Curve) MinDelta() float64 { return c.minDelta }

// MaxDelta returns Δ⊣, the lowest acceptable resolution.
func (c *Curve) MaxDelta() float64 { return c.maxDelta }

// Segments returns κ, the number of linear segments.
func (c *Curve) Segments() int { return len(c.ys) - 1 }

// SegmentWidth returns the paper's increment c_Δ = (Δ⊣ − Δ⊢)/κ for which
// GREEDYINCREMENT is optimal on this curve.
func (c *Curve) SegmentWidth() float64 { return c.width }

// Knot returns the i-th knot threshold and value.
func (c *Curve) Knot(i int) (delta, f float64) {
	return c.minDelta + c.width*float64(i), c.ys[i]
}

func (c *Curve) clamp(delta float64) float64 {
	if delta < c.minDelta {
		return c.minDelta
	}
	if delta > c.maxDelta {
		return c.maxDelta
	}
	return delta
}

// Eval returns f(Δ). Arguments outside [Δ⊢, Δ⊣] are clamped.
func (c *Curve) Eval(delta float64) float64 {
	delta = c.clamp(delta)
	t := (delta - c.minDelta) / c.width
	i := int(t)
	if i >= c.Segments() {
		return c.ys[c.Segments()]
	}
	frac := t - float64(i)
	return c.ys[i] + (c.ys[i+1]-c.ys[i])*frac
}

// Rate returns r(Δ) = −f′(Δ), the decrease rate of the update expenditure
// at Δ (§3.3.2). At interior knots the right-hand slope is used — the
// greedy step is about to move Δ upward, so the slope of the segment it is
// entering is the relevant one. At Δ⊣ the last segment's slope is used.
func (c *Curve) Rate(delta float64) float64 {
	i := int((c.clamp(delta) - c.minDelta) / c.width)
	if i >= len(c.rates) {
		i = len(c.rates) - 1
	}
	return c.rates[i]
}

// Invert returns the smallest Δ with f(Δ) ≤ target. This is how the
// Uniform Δ baseline picks its single threshold to retain a throttle
// fraction z of updates. Targets above 1 return Δ⊢; targets below
// f(Δ⊣) return Δ⊣.
func (c *Curve) Invert(target float64) float64 {
	if target >= 1 {
		return c.minDelta
	}
	last := c.Segments()
	if target <= c.ys[last] {
		return c.maxDelta
	}
	// Find the first knot with value <= target; interpolate inside the
	// preceding segment. f is non-increasing so a linear scan over κ+1
	// knots is fine (κ is small and fixed).
	for i := 1; i <= last; i++ {
		if c.ys[i] <= target {
			span := c.ys[i-1] - c.ys[i]
			frac := 1.0
			if span > 0 {
				frac = (c.ys[i-1] - target) / span
			}
			return c.minDelta + c.width*(float64(i-1)+frac)
		}
	}
	return c.maxDelta
}

// Resample returns a curve over the same threshold range with the given
// number of equal segments, sampling c piece-wise linearly at the new
// knots. Calibration can thus run at a coarse κ (cheap) while the
// optimizer consumes the fine-grained curve matching the paper's 1 m
// increment.
func Resample(c *Curve, segments int) *Curve {
	if segments < 1 {
		segments = 1
	}
	knots := make([]float64, segments+1)
	for i := range knots {
		d := c.minDelta + (c.maxDelta-c.minDelta)*float64(i)/float64(segments)
		knots[i] = c.Eval(d)
	}
	out, err := NewCurve(c.minDelta, c.maxDelta, knots)
	if err != nil {
		panic(err) // impossible: source curve invariants carry over
	}
	return out
}

// trackSource is the subset of the trace source the calibrator needs.
type trackSource interface {
	N() int
	Positions() []geo.Point
	Velocities() []geo.Vector
	Step(dt float64)
	Reset()
}

// Calibrate measures f(Δ) by replaying a trace under κ+1 thresholds
// simultaneously and counting the updates each threshold generates,
// reproducing the experiment behind the paper's Figure 1. The source is
// Reset before and after use. ticks is the number of dt-second steps to
// replay.
func Calibrate(src trackSource, minDelta, maxDelta float64, segments, ticks int, dt float64) (*Curve, error) {
	if segments < 1 {
		return nil, fmt.Errorf("fmodel: need at least 1 segment")
	}
	if ticks < 1 {
		return nil, fmt.Errorf("fmodel: need at least 1 tick")
	}
	src.Reset()
	n := src.N()
	k := segments + 1
	reckoners := make([][]motion.DeadReckoner, k)
	counts := make([]float64, k)
	thresholds := make([]float64, k)
	for j := 0; j < k; j++ {
		thresholds[j] = minDelta + (maxDelta-minDelta)*float64(j)/float64(segments)
		reckoners[j] = make([]motion.DeadReckoner, n)
	}
	pos, vel := src.Positions(), src.Velocities()
	for j := 0; j < k; j++ {
		for i := 0; i < n; i++ {
			reckoners[j][i].Start(pos[i], vel[i], 0)
		}
		counts[j] += float64(n) // initial reports count as updates
	}
	for tick := 1; tick <= ticks; tick++ {
		src.Step(dt)
		now := float64(tick) * dt
		pos, vel = src.Positions(), src.Velocities()
		for j := 0; j < k; j++ {
			rj := reckoners[j]
			for i := 0; i < n; i++ {
				if _, send := rj[i].Observe(pos[i], vel[i], now, thresholds[j]); send {
					counts[j]++
				}
			}
		}
	}
	src.Reset()
	return NewCurve(minDelta, maxDelta, counts)
}
