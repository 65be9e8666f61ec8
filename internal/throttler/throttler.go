// Package throttler implements GREEDYINCREMENT (§3.3, Algorithm 2): given
// the shedding regions produced by GRIDREDUCE, it sets the update
// throttlers Δᵢ so the query-result inaccuracy Σ mᵢ·Δᵢ is minimized while
// the update budget constraint Σ nᵢ·(sᵢ/ŝ)·f(Δᵢ) ≤ z·n·f(Δ⊢) and the
// fairness constraint ∀i,j |Δᵢ − Δⱼ| ≤ Δ⇔ hold.
//
// The algorithm greedily raises the throttler with the highest update gain
// Sᵢ = (nᵢ/mᵢ)·sᵢ·r(Δᵢ) — the reduction in update expenditure per unit of
// added query inaccuracy — one increment c_Δ at a time, aligned to the
// knots of the piece-wise-linear f so every step stays inside one linear
// segment. Per Theorem 3.1 this is optimal for that approximation when
// c_Δ equals the segment width.
package throttler

import (
	"fmt"
	"math"
	"sync"

	"lira/internal/container/iheap"
	"lira/internal/fmodel"
)

// RegionStat summarizes a shedding region for the optimizer: node count N,
// fractional query count M, and average node speed S.
type RegionStat struct {
	N, M, S float64
}

// Options configures GREEDYINCREMENT.
type Options struct {
	// Z is the throttle fraction z ∈ [0, 1]: the fraction of the full
	// update expenditure to retain.
	Z float64
	// Increment is c_Δ. Zero selects the curve's segment width, for which
	// the result is optimal (Theorem 3.1).
	Increment float64
	// Fairness is Δ⇔, the maximum allowed difference between any two
	// throttlers. Zero means the strict uniform-Δ degenerate case; use
	// NoFairness for the unconstrained original formulation.
	Fairness float64
	// UseSpeed enables the §3.1.2 speed factor: region expenditure is
	// weighted by sᵢ/ŝ. Without it all speeds are treated as equal.
	UseSpeed bool
}

// NoFairness is a Fairness value that never constrains: Δ⊣ − Δ⊢ (the
// paper's degenerate case recovering the original formulation).
func NoFairness(curve *fmodel.Curve) float64 {
	return curve.MaxDelta() - curve.MinDelta()
}

// Result is the output of SetThrottlers.
type Result struct {
	// Deltas holds the update throttler Δᵢ per region.
	Deltas []float64
	// Expenditure is the modeled update expenditure after throttling,
	// in the same unit as Budget.
	Expenditure float64
	// Budget is z times the full expenditure.
	Budget float64
	// BudgetMet reports whether the expenditure was reduced to the
	// budget. False means the budget is unreachable even at ∀i Δᵢ = Δ⊣
	// (or unreachable without violating fairness).
	BudgetMet bool
	// InAcc is the objective value Σ mᵢ·Δᵢ.
	InAcc float64
	// Gains holds the final update gain Sᵢ = (wᵢ/mᵢ)·r(Δᵢ) per region at
	// the assigned Δᵢ (+Inf for query-free regions with expenditure left).
	Gains []float64
	// FairnessClamps counts greedy steps parked at the fairness limit Δ⇔,
	// including re-parks after re-admission.
	FairnessClamps int
}

// Greedy is GREEDYINCREMENT's working state: the expenditure weights wᵢ, the
// throttlers Δᵢ being raised, the heap of update gains, the heap that
// keeps the minimum throttler Δ⊵ on top (it anchors the fairness limit),
// and the list of regions parked at that limit. The zero value is ready
// to use. Reusing one Greedy across calls makes the greedy loop
// allocation-free once its slices have grown to the largest region count
// seen; it never retains the caller's stats and must not be shared
// between goroutines.
type Greedy struct {
	w, deltas []float64
	gains     iheap.Heap // update gain Sᵢ of every region still being raised
	lowest    iheap.Heap // −Δᵢ of every region, so the top is Δ⊵
	blocked   []int      // regions parked at the fairness limit Δ⊵ + Δ⇔
	steps     int        // greedy pops of the last run, read by the complexity test
}

// greedyPool backs SetThrottlers, whose signature has no place for a
// caller-owned Greedy.
var greedyPool = sync.Pool{New: func() any { return new(Greedy) }}

// SetThrottlers runs GREEDYINCREMENT over the given regions. It returns an
// error for invalid options. An empty region list yields an empty result.
// The result is freshly allocated and the caller's to keep.
func SetThrottlers(stats []RegionStat, curve *fmodel.Curve, opts Options) (*Result, error) {
	if curve == nil {
		return nil, fmt.Errorf("throttler: nil curve")
	}
	if opts.Z < 0 || opts.Z > 1 {
		return nil, fmt.Errorf("throttler: throttle fraction %v outside [0,1]", opts.Z)
	}
	if opts.Fairness < 0 {
		return nil, fmt.Errorf("throttler: negative fairness threshold %v", opts.Fairness)
	}
	inc := opts.Increment
	if inc == 0 {
		inc = curve.SegmentWidth()
	}
	if inc < 0 {
		return nil, fmt.Errorf("throttler: negative increment %v", inc)
	}
	if len(stats) == 0 {
		return &Result{Deltas: []float64{}, BudgetMet: true}, nil
	}

	g := greedyPool.Get().(*Greedy)
	defer greedyPool.Put(g)
	res := &Result{Gains: make([]float64, len(stats))}
	res.Expenditure, res.Budget, res.FairnessClamps = g.run(stats, curve, opts.Z, inc, opts.Fairness, opts.UseSpeed)
	res.BudgetMet = res.Expenditure <= res.Budget+eps*res.Budget+eps
	res.Deltas = append([]float64(nil), g.deltas...)
	res.InAcc = inAcc(stats, res.Deltas)
	for i := range res.Gains {
		res.Gains[i] = g.gain(stats, curve, i)
	}
	return res, nil
}

// InAcc returns the optimal objective Σ mᵢ·Δᵢ for the regions under
// throttle fraction z, with the curve's own increment and neither the
// fairness constraint nor the speed factor: what SetThrottlers reports as
// Result.InAcc for those options, without building a Result. GRIDREDUCE's
// accuracy gain evaluates it on the four children of every explored node.
func (g *Greedy) InAcc(stats []RegionStat, curve *fmodel.Curve, z float64) float64 {
	g.run(stats, curve, z, curve.SegmentWidth(), NoFairness(curve), false)
	return inAcc(stats, g.deltas)
}

// eps is the tolerance of the budget and fairness-limit comparisons.
const eps = 1e-9

// gain returns the update gain Sᵢ at the region's current Δ. Regions with
// no queries have unbounded gain (+Inf): shedding there is free.
func (g *Greedy) gain(stats []RegionStat, curve *fmodel.Curve, i int) float64 {
	r := curve.Rate(g.deltas[i])
	if m := stats[i].M; m != 0 {
		return g.w[i] / m * r
	}
	if g.w[i]*r > 0 {
		return math.Inf(1)
	}
	// No queries and no expenditure to recover: harmless but pointless;
	// keep it at the bottom of the heap.
	return 0
}

// run is the greedy loop. It leaves the throttlers in g.deltas and the
// weights in g.w, and returns the expenditure reached, the budget z·u₀
// and the number of fairness clamps. Options are the caller's to validate.
func (g *Greedy) run(stats []RegionStat, curve *fmodel.Curve, z, inc, fairness float64, useSpeed bool) (u, budget float64, clamps int) {
	l := len(stats)
	dl, dh := curve.MinDelta(), curve.MaxDelta()
	g.steps = 0

	// Region expenditure weight wᵢ: nᵢ·sᵢ/ŝ with the speed factor, nᵢ
	// without. Using sᵢ/ŝ (rather than raw sᵢ) keeps the expenditure in
	// "updates" units; the constraint is equivalent.
	var totalN, totalNS float64
	for _, st := range stats {
		totalN += st.N
		totalNS += st.N * st.S
	}
	if cap(g.w) < l {
		g.w, g.deltas, g.blocked = make([]float64, 0, l), make([]float64, 0, l), make([]int, 0, l)
	}
	g.w, g.deltas = g.w[:0], g.deltas[:0]
	for _, st := range stats {
		w := st.N
		if useSpeed && totalNS > 0 {
			w = st.N * st.S * totalN / totalNS
		}
		g.w = append(g.w, w)
		g.deltas = append(g.deltas, dl)
	}

	u = totalN * curve.Eval(dl) // f(Δ⊢) == 1 by construction
	budget = z * u
	if u <= budget {
		return u, budget, 0 // nothing to shed
	}

	g.gains.Reset(l)
	g.lowest.Reset(l)
	g.blocked = g.blocked[:0]
	for i := 0; i < l; i++ {
		g.gains.Push(i, g.gain(stats, curve, i))
		g.lowest.Push(i, -dl)
	}

	for u > budget+eps*budget && g.gains.Len() > 0 {
		g.steps++
		i, _ := g.gains.PopMax()
		old := g.deltas[i]
		_, negMin := g.lowest.PeekMax()
		oldMin := -negMin

		// Step to the next knot of f (relative to Δ⊢) but never past the
		// fairness limit, the budget-exact point, or Δ⊣.
		nextKnot := dl + inc*(math.Floor((old-dl)/inc+1))
		limit := math.Min(nextKnot, oldMin+fairness)
		// w[i] already carries the speed factor when enabled, so the
		// expenditure-decrease rate is w[i]·r(Δ) in both modes.
		rate := g.w[i] * curve.Rate(old)
		if rate > 0 {
			exact := old + (u-budget)/rate
			limit = math.Min(limit, exact)
		}
		next := math.Min(limit, dh)
		if next <= old {
			// Fairness pins this region at the current minimum (Δ⇔ = 0
			// with everything equal, or it is already at the limit).
			// Park it; it re-enters when the minimum moves.
			g.blocked = append(g.blocked, i)
			clamps++
			continue
		}

		g.deltas[i] = next
		u -= (next - old) * rate
		g.lowest.Update(i, -next)
		_, negMin = g.lowest.PeekMax()
		newMin := -negMin

		switch {
		case next-newMin >= fairness-eps && next < dh:
			g.blocked = append(g.blocked, i)
			clamps++
		case next < dh:
			g.gains.Push(i, g.gain(stats, curve, i))
		}

		if newMin != oldMin {
			// Re-admit blocked regions that are no longer at the limit.
			kept := g.blocked[:0]
			for _, j := range g.blocked {
				if g.deltas[j]-newMin < fairness-eps && g.deltas[j] < dh {
					g.gains.Push(j, g.gain(stats, curve, j))
				} else {
					kept = append(kept, j)
				}
			}
			g.blocked = kept
		}
	}
	return u, budget, clamps
}

func inAcc(stats []RegionStat, deltas []float64) float64 {
	total := 0.0
	for i, st := range stats {
		total += st.M * deltas[i]
	}
	return total
}

// InAccuracy returns the objective Σ mᵢ·Δᵢ for an arbitrary assignment —
// exported for tests, the analytic policies and the planner.
func InAccuracy(stats []RegionStat, deltas []float64) float64 {
	return inAcc(stats, deltas)
}

// Expenditure returns the modeled update expenditure Σ wᵢ·f(Δᵢ) for an
// arbitrary assignment, with the same speed weighting as SetThrottlers.
func Expenditure(stats []RegionStat, curve *fmodel.Curve, deltas []float64, useSpeed bool) float64 {
	var totalN, totalNS float64
	for _, st := range stats {
		totalN += st.N
		totalNS += st.N * st.S
	}
	total := 0.0
	for i, st := range stats {
		w := st.N
		if useSpeed && totalNS > 0 {
			w = st.N * st.S * totalN / totalNS
		}
		total += w * curve.Eval(deltas[i])
	}
	return total
}
