package throttler

import (
	"fmt"
	"math"
	"testing"

	"lira/internal/fmodel"
	"lira/internal/rng"
)

// naiveHeap and naiveMultiset stand in for the indexed heap and the treap
// the pre-refactor SetThrottlers was written on: linear scans with the
// same contract (max priority first, earliest push among equals; minimum
// key), so the oracle below shares no container code with the greedy core.
type naiveHeap struct {
	ids  []int
	pri  []float64
	tie  []int
	next int
}

func (h *naiveHeap) Len() int { return len(h.ids) }

func (h *naiveHeap) Push(id int, priority float64) {
	h.ids, h.pri, h.tie = append(h.ids, id), append(h.pri, priority), append(h.tie, h.next)
	h.next++
}

func (h *naiveHeap) PopMax() (int, float64) {
	best := 0
	for i := range h.ids {
		if h.pri[i] > h.pri[best] || (h.pri[i] == h.pri[best] && h.tie[i] < h.tie[best]) {
			best = i
		}
	}
	id, p := h.ids[best], h.pri[best]
	last := len(h.ids) - 1
	h.ids[best], h.pri[best], h.tie[best] = h.ids[last], h.pri[last], h.tie[last]
	h.ids, h.pri, h.tie = h.ids[:last], h.pri[:last], h.tie[:last]
	return id, p
}

type naiveMultiset struct{ keys []float64 }

func (m *naiveMultiset) Insert(k float64) { m.keys = append(m.keys, k) }

func (m *naiveMultiset) Min() (float64, bool) {
	if len(m.keys) == 0 {
		return 0, false
	}
	lo := m.keys[0]
	for _, k := range m.keys {
		if k < lo {
			lo = k
		}
	}
	return lo, true
}

func (m *naiveMultiset) Replace(old, next float64) {
	for i, k := range m.keys {
		if k == old {
			m.keys[i] = next
			return
		}
	}
	panic("naiveMultiset: Replace of absent key")
}

// oracleSetThrottlers is SetThrottlers as it stood before the greedy loop
// moved onto reusable scratch, verbatim except for the two container
// types above. It is the reference the bit-identity properties compare
// against; do not optimize it.
func oracleSetThrottlers(stats []RegionStat, curve *fmodel.Curve, opts Options) (*Result, error) {
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

	l := len(stats)
	dl, dh := curve.MinDelta(), curve.MaxDelta()
	res := &Result{Deltas: make([]float64, l)}
	for i := range res.Deltas {
		res.Deltas[i] = dl
	}
	if l == 0 {
		res.BudgetMet = true
		return res, nil
	}

	w := make([]float64, l)
	var totalN, totalNS float64
	for _, st := range stats {
		totalN += st.N
		totalNS += st.N * st.S
	}
	for i, st := range stats {
		if opts.UseSpeed && totalNS > 0 {
			w[i] = st.N * st.S * totalN / totalNS
		} else {
			w[i] = st.N
		}
	}

	gain := func(i int) float64 {
		st := stats[i]
		r := curve.Rate(res.Deltas[i])
		if st.M == 0 {
			if w[i]*r > 0 {
				return math.Inf(1)
			}
			return 0
		}
		return w[i] / st.M * r
	}
	finalGains := func() []float64 {
		out := make([]float64, l)
		for i := range out {
			out[i] = gain(i)
		}
		return out
	}

	fAtMin := curve.Eval(dl)
	u := totalN * fAtMin
	budget := opts.Z * u
	res.Budget = budget
	if u <= budget {
		res.Expenditure = u
		res.BudgetMet = true
		res.InAcc = inAcc(stats, res.Deltas)
		res.Gains = finalGains()
		return res, nil
	}

	var h naiveHeap
	var deltas naiveMultiset
	for i := 0; i < l; i++ {
		h.Push(i, gain(i))
		deltas.Insert(res.Deltas[i])
	}
	var blocked []int

	const eps = 1e-9
	for u > budget+eps*budget && h.Len() > 0 {
		i, _ := h.PopMax()
		old := res.Deltas[i]
		oldMin, _ := deltas.Min()

		nextKnot := dl + inc*(math.Floor((old-dl)/inc+1))
		limit := math.Min(nextKnot, oldMin+opts.Fairness)
		rate := w[i] * curve.Rate(old)
		if rate > 0 {
			exact := old + (u-budget)/rate
			limit = math.Min(limit, exact)
		}
		next := math.Min(limit, dh)
		if next <= old {
			blocked = append(blocked, i)
			res.FairnessClamps++
			continue
		}

		res.Deltas[i] = next
		u -= (next - old) * rate
		deltas.Replace(old, next)
		newMin, _ := deltas.Min()

		switch {
		case next-newMin >= opts.Fairness-eps && next < dh:
			blocked = append(blocked, i)
			res.FairnessClamps++
		case next < dh:
			h.Push(i, gain(i))
		}

		if newMin != oldMin {
			kept := blocked[:0]
			for _, j := range blocked {
				if res.Deltas[j]-newMin < opts.Fairness-eps && res.Deltas[j] < dh {
					h.Push(j, gain(j))
				} else {
					kept = append(kept, j)
				}
			}
			blocked = kept
		}
	}

	res.Expenditure = u
	res.BudgetMet = u <= budget+eps*budget+eps
	res.InAcc = inAcc(stats, res.Deltas)
	res.Gains = finalGains()
	return res, nil
}

// testCurves are the three shapes the properties run over: the daemon's
// analytic default, a coarse calibrated-looking curve with a flat tail
// (zero-rate segments), and a steep two-segment one.
func testCurves(t testing.TB) []*fmodel.Curve {
	flat, err := fmodel.NewCurve(2, 50, []float64{900, 410, 260, 180, 180, 120, 120, 120, 90})
	if err != nil {
		t.Fatal(err)
	}
	return []*fmodel.Curve{fmodel.Hyperbolic(5, 100, 95), flat, fmodel.Hyperbolic(1, 7, 2)}
}

// genStats draws l regions with the shapes that steer the greedy loop:
// empty regions (N = 0), query-free regions (M = 0, infinite gain) and
// exact duplicates of an earlier region, which tie on gain.
func genStats(r *rng.Rand, l int) []RegionStat {
	stats := make([]RegionStat, l)
	for i := range stats {
		st := RegionStat{N: math.Floor(r.Float64() * 200), M: r.Float64() * 4, S: 1 + r.Float64()*30}
		switch pick := r.Float64(); {
		case pick < 0.10:
			st.N = 0
		case pick < 0.25:
			st.M = 0
		case pick < 0.30:
			st.N, st.M = 0, 0
		case pick < 0.50 && i > 0:
			st = stats[r.Intn(i)]
		}
		stats[i] = st
	}
	return stats
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// Property: on generated statistics, SetThrottlers equals the pre-refactor
// implementation bit for bit in every Result field, across throttle
// fractions, fairness thresholds, the speed factor and curve shapes. This
// also pins the minimum-throttler tracking (once a treap, now a second
// indexed heap): a wrong Δ⊵ moves the fairness limit and the clamp count.
func TestSetThrottlersMatchesOracle(t *testing.T) {
	r := rng.New(20)
	for ci, c := range testCurves(t) {
		fairs := []float64{0, 0.5 * c.SegmentWidth(), 3.3 * c.SegmentWidth(), NoFairness(c)}
		for _, z := range []float64{0, 0.05, 0.3, 0.5, 0.75, 0.999, 1} {
			for _, fair := range fairs {
				for _, speed := range []bool{false, true} {
					for rep := 0; rep < 24; rep++ {
						l := []int{1, 2, 4, 4, 7, 16, 40, 120}[r.Intn(8)]
						stats := genStats(r, l)
						opts := Options{Z: z, Fairness: fair, UseSpeed: speed}
						if rep%4 == 3 {
							opts.Increment = 0.37 * c.SegmentWidth() // off-knot increment
						}
						want, err := oracleSetThrottlers(stats, c, opts)
						if err != nil {
							t.Fatal(err)
						}
						got, err := SetThrottlers(stats, c, opts)
						if err != nil {
							t.Fatal(err)
						}
						if !sameBits(got.Deltas, want.Deltas) || !sameBits(got.Gains, want.Gains) ||
							!bitsEqual(got.InAcc, want.InAcc) || !bitsEqual(got.Expenditure, want.Expenditure) ||
							!bitsEqual(got.Budget, want.Budget) || got.BudgetMet != want.BudgetMet ||
							got.FairnessClamps != want.FairnessClamps {
							t.Fatalf("curve %d %+v l=%d: result differs from the oracle\n got %+v\nwant %+v\nstats %+v",
								ci, opts, l, got, want, stats)
						}
					}
				}
			}
		}
	}
}

// Property: Greedy.InAcc, the entry GRIDREDUCE's accuracy gain uses, is
// exactly SetThrottlers' InAcc under the options the accuracy gain passed
// before — on four regions, and with the same Greedy reused across region
// counts so stale scratch would show.
func TestGreedyInAccMatchesOracle(t *testing.T) {
	r := rng.New(21)
	var g Greedy
	for _, c := range testCurves(t) {
		for rep := 0; rep < 3000; rep++ {
			l := 4
			if rep%10 == 9 {
				l = 1 + r.Intn(30)
			}
			stats := genStats(r, l)
			z := []float64{0, 0.1, 0.3, 0.6, 0.9, 1}[r.Intn(6)]
			want, err := oracleSetThrottlers(stats, c, Options{Z: z, Fairness: NoFairness(c)})
			if err != nil {
				t.Fatal(err)
			}
			if got := g.InAcc(stats, c, z); !bitsEqual(got, want.InAcc) {
				t.Fatalf("z=%v stats %+v: InAcc %v, oracle %v", z, stats, got, want.InAcc)
			}
		}
	}
}

// The complexity claim as a count: every greedy pop either raises one Δᵢ
// to the next knot — at most κ times per region — or ends the loop on the
// budget-exact point, so an unconstrained run takes at most κ·l + 1 pops.
func TestGreedyStepBound(t *testing.T) {
	c := curve()
	r := rng.New(22)
	var g Greedy
	for _, l := range []int{250, 1000, 4000} {
		stats := genStats(r, l)
		for _, z := range []float64{0, 0.3, 0.8} {
			g.run(stats, c, z, c.SegmentWidth(), NoFairness(c), false)
			if bound := c.Segments()*l + 1; g.steps > bound {
				t.Errorf("l=%d z=%v: %d greedy steps, bound κ·l+1 = %d", l, z, g.steps, bound)
			}
			if z == 0 && g.steps < l {
				t.Errorf("l=%d z=0: only %d steps; the counter is not counting", l, g.steps)
			}
		}
	}
}

// Steady state, SetThrottlers allocates the Result it returns (the struct,
// Deltas, Gains) and nothing else: the greedy loop runs on pooled scratch.
// The bound leaves room for -race, under which sync.Pool drops a quarter
// of its Puts and the scratch is rebuilt.
func TestAllocsSetThrottlers(t *testing.T) {
	c := curve()
	stats := genStats(rng.New(23), 1000)
	opts := Options{Z: 0.3, Fairness: 50, UseSpeed: true}
	if _, err := SetThrottlers(stats, c, opts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := SetThrottlers(stats, c, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Errorf("SetThrottlers allocates %.0f/op at l=1000 in steady state, want the Result only (≤ 6)", allocs)
	}
}
