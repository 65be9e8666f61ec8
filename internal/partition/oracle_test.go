package partition

import (
	"fmt"
	"math"
	"testing"

	"lira/internal/container/iheap"
	"lira/internal/fmodel"
	"lira/internal/geo"
	"lira/internal/rng"
	"lira/internal/statgrid"
	"lira/internal/throttler"
)

// The declarations down to oracleGridReduce are GRIDREDUCE as it stood
// before Stage I moved onto the flat pooled arena: one slice per level and
// statistic, a map from heap id to tree node, and an accuracy gain that
// runs the general SetThrottlers on a fresh four-element slice. They are
// verbatim except for one loop: the query-protection phase ranged over the
// map (ties on risk fell to Go's map order); it walks the ids in push
// order here, which picks the same region whenever the risks are untied.
// This is the reference the bit-identity property compares against; do not
// optimize it.

// quadTree holds the Stage-I aggregation. Level d is a 2^d × 2^d grid of
// regions; level depth equals log2(alpha).
type quadTree struct {
	space geo.Rect
	depth int // leaf level
	// n, m, s indexed by [level][row*side+col]
	n, m, s [][]float64
}

// nodeRef identifies a tree node.
type nodeRef struct {
	level, col, row int
}

func (t *quadTree) side(level int) int { return 1 << level }

func (t *quadTree) idx(r nodeRef) int { return r.row*t.side(r.level) + r.col }

func (t *quadTree) rect(r nodeRef) geo.Rect {
	side := float64(t.side(r.level))
	w := t.space.Width() / side
	h := t.space.Height() / side
	return geo.Rect{
		MinX: t.space.MinX + float64(r.col)*w,
		MinY: t.space.MinY + float64(r.row)*h,
		MaxX: t.space.MinX + float64(r.col+1)*w,
		MaxY: t.space.MinY + float64(r.row+1)*h,
	}
}

func (t *quadTree) children(r nodeRef) [4]nodeRef {
	return [4]nodeRef{
		{r.level + 1, 2 * r.col, 2 * r.row},
		{r.level + 1, 2*r.col + 1, 2 * r.row},
		{r.level + 1, 2 * r.col, 2*r.row + 1},
		{r.level + 1, 2*r.col + 1, 2*r.row + 1},
	}
}

func (t *quadTree) stat(r nodeRef) throttler.RegionStat {
	i := t.idx(r)
	return throttler.RegionStat{N: t.n[r.level][i], M: t.m[r.level][i], S: t.s[r.level][i]}
}

// buildTree aggregates the statistics grid bottom-up (Stage I, O(α²)).
// The grid's alpha must be a power of two.
func buildTree(g *statgrid.Grid) (*quadTree, error) {
	alpha := g.Alpha()
	if alpha&(alpha-1) != 0 {
		return nil, fmt.Errorf("partition: alpha %d is not a power of two", alpha)
	}
	depth := 0
	for 1<<depth < alpha {
		depth++
	}
	t := &quadTree{space: g.Space(), depth: depth}
	t.n = make([][]float64, depth+1)
	t.m = make([][]float64, depth+1)
	t.s = make([][]float64, depth+1)
	for d := 0; d <= depth; d++ {
		side := t.side(d)
		t.n[d] = make([]float64, side*side)
		t.m[d] = make([]float64, side*side)
		t.s[d] = make([]float64, side*side)
	}
	// Leaves from the grid cells.
	for j := 0; j < alpha; j++ {
		for i := 0; i < alpha; i++ {
			n, m, s := g.Cell(i, j)
			c := j*alpha + i
			t.n[depth][c] = n
			t.m[depth][c] = m
			t.s[depth][c] = s
		}
	}
	// Upward aggregation: n and m sum; s is the node-weighted mean.
	for d := depth - 1; d >= 0; d-- {
		side := t.side(d)
		for row := 0; row < side; row++ {
			for col := 0; col < side; col++ {
				ref := nodeRef{d, col, row}
				var n, m, sw float64
				for _, ch := range t.children(ref) {
					ci := t.idx(ch)
					n += t.n[d+1][ci]
					m += t.m[d+1][ci]
					sw += t.n[d+1][ci] * t.s[d+1][ci]
				}
				i := t.idx(ref)
				t.n[d][i] = n
				t.m[d][i] = m
				if n > 0 {
					t.s[d][i] = sw / n
				} else {
					// Preserve a plausible speed for empty regions: plain
					// mean of children.
					var sum float64
					for _, ch := range t.children(ref) {
						sum += t.s[d+1][t.idx(ch)]
					}
					t.s[d][i] = sum / 4
				}
			}
		}
	}
	return t, nil
}

// accuracyGain computes V[t] = E[t] − E_p[t] (CALCERRGAIN in Algorithm 1):
// the reduction in optimal inaccuracy from splitting node ref into its
// four children, under throttle fraction z.
func (t *quadTree) accuracyGain(ref nodeRef, z float64, curve *fmodel.Curve) float64 {
	if ref.level == t.depth {
		return 0 // grid-cell leaf: no further partitioning is possible
	}
	st := t.stat(ref)
	// E: one region. The optimal single Δ is the smallest with
	// f(Δ) ≤ z·f(Δ⊢).
	e := st.M * curve.Invert(z)

	children := t.children(ref)
	stats := make([]throttler.RegionStat, 4)
	for i, ch := range children {
		stats[i] = t.stat(ch)
	}
	res, err := throttler.SetThrottlers(stats, curve, throttler.Options{
		Z:        z,
		Fairness: throttler.NoFairness(curve),
	})
	if err != nil {
		// Options are constructed valid; an error here is a programming
		// bug, not an input condition.
		panic(err)
	}
	ep := res.InAcc
	if gain := e - ep; gain > 0 {
		return gain
	}
	return 0
}

// oracleGridReduce is the pre-refactor GridReduce.
func oracleGridReduce(g *statgrid.Grid, cfg Config) (*Partitioning, error) {
	if cfg.Curve == nil {
		return nil, fmt.Errorf("partition: nil curve")
	}
	if cfg.Z < 0 || cfg.Z > 1 {
		return nil, fmt.Errorf("partition: throttle fraction %v outside [0,1]", cfg.Z)
	}
	if cfg.L < 1 {
		return nil, fmt.Errorf("partition: non-positive region count %d", cfg.L)
	}
	t, err := buildTree(g)
	if err != nil {
		return nil, err
	}
	target := ValidRegionCount(cfg.L)

	// Stage II: drill down by accuracy gain. The heap holds explored,
	// still-splittable nodes; leaves move to the final list.
	var h iheap.Heap
	refByID := map[int]nodeRef{}
	nextID := 0
	push := func(ref nodeRef) {
		id := nextID
		nextID++
		refByID[id] = ref
		h.Push(id, t.accuracyGain(ref, cfg.Z, cfg.Curve))
	}
	// Reserve a fraction of the splits for the query-protection phase.
	totalSplits := (target - 1) / 3
	protectSplits := 0
	if cfg.ProtectQueries > 0 {
		protectSplits = int(cfg.ProtectQueries * float64(totalSplits))
	}
	mainTarget := target - 3*protectSplits

	var drill DrillStats
	var leaves []nodeRef
	push(nodeRef{0, 0, 0})
	for len(leaves)+h.Len() < mainTarget && h.Len() > 0 {
		id, _ := h.PopMax()
		ref := refByID[id]
		delete(refByID, id)
		if ref.level == t.depth {
			drill.SplitsRejected++
			leaves = append(leaves, ref)
			continue
		}
		drill.SplitsTaken++
		for _, ch := range t.children(ref) {
			push(ch)
		}
	}

	// Protection phase (extension): split the splittable regions whose
	// queries are most exposed — large node mass per unit of query mass.
	if protectSplits > 0 {
		risk := func(ref nodeRef) float64 {
			st := t.stat(ref)
			if st.M <= 0 || ref.level == t.depth {
				return -1
			}
			return st.N * st.S / st.M
		}
		for s := 0; s < protectSplits; s++ {
			bestID, bestRisk := -1, 0.0
			for id := 0; id < nextID; id++ { // was: range refByID, in map order
				ref, ok := refByID[id]
				if !ok {
					continue
				}
				if r := risk(ref); r > bestRisk {
					bestID, bestRisk = id, r
				}
			}
			if bestID == -1 {
				// Nothing protectable left: spend the split on gain.
				if h.Len() == 0 {
					break
				}
				id, _ := h.PeekMax()
				bestID = id
				if refByID[bestID].level == t.depth {
					break
				}
			}
			ref := refByID[bestID]
			h.Remove(bestID)
			delete(refByID, bestID)
			drill.ProtectSplits++
			for _, ch := range t.children(ref) {
				push(ch)
			}
		}
	}

	p := &Partitioning{Space: t.space, Drill: drill}
	emit := func(ref nodeRef) {
		st := t.stat(ref)
		p.Regions = append(p.Regions, Region{Area: t.rect(ref), N: st.N, M: st.M, S: st.S})
	}
	for _, ref := range leaves {
		emit(ref)
	}
	for h.Len() > 0 {
		id, _ := h.PopMax()
		emit(refByID[id])
	}
	return p, nil
}

// genGrid fills an α×α grid with the shapes that steer the drill-down:
// a dense cluster, a sparse background, an empty half, and queries both
// inside and away from the nodes. With tile set, the south-west quarter
// is repeated in the other three by exact translation — integer
// coordinates and speeds, so every per-cell sum is exact — and the four
// subtrees under the root tie on accuracy gain and on risk.
func genGrid(r *rng.Rand, alpha int, tile bool) *statgrid.Grid {
	g := statgrid.New(space(), alpha)
	var pts []geo.Point
	var speeds []float64
	var qs []geo.Rect
	shifts := []float64{0}
	if tile {
		shifts = []float64{0, 500}
	}
	add := func(x, y, s float64) {
		for _, dy := range shifts {
			for _, dx := range shifts {
				pts, speeds = append(pts, geo.Point{X: x + dx, Y: y + dy}), append(speeds, s)
			}
		}
	}
	cx, cy := float64(r.Intn(380)), float64(r.Intn(380))
	for i, n := 0, 50+r.Intn(1500); i < n; i++ {
		if r.Float64() < 0.6 {
			add(cx+float64(r.Intn(120)), cy+float64(r.Intn(120)), float64(5+r.Intn(20)))
		} else {
			add(float64(r.Intn(250)), float64(r.Intn(500)), float64(1+r.Intn(30)))
		}
	}
	for round := 1 + r.Intn(3); round > 0; round-- {
		g.Observe(pts, speeds)
	}
	for i, n := 0, r.Intn(40); i < n; i++ {
		x, y, side := float64(r.Intn(350)), float64(r.Intn(350)), float64(10+r.Intn(140))
		for _, dy := range shifts {
			for _, dx := range shifts {
				qs = append(qs, geo.Rect{MinX: x + dx, MinY: y + dy, MaxX: x + dx + side, MaxY: y + dy + side})
			}
		}
	}
	g.SetQueries(qs)
	return g
}

func sameRegions(a, b *Partitioning) error {
	if a.Space != b.Space || a.Drill != b.Drill || len(a.Regions) != len(b.Regions) {
		return fmt.Errorf("space/drill/count differ: %v %+v %d vs %v %+v %d",
			a.Space, a.Drill, len(a.Regions), b.Space, b.Drill, len(b.Regions))
	}
	bits := math.Float64bits
	for i, ra := range a.Regions {
		rb := b.Regions[i]
		if ra.Area != rb.Area || bits(ra.N) != bits(rb.N) || bits(ra.M) != bits(rb.M) || bits(ra.S) != bits(rb.S) {
			return fmt.Errorf("region %d: %+v vs %+v", i, ra, rb)
		}
	}
	return nil
}

// Property: on generated grids GridReduce returns the pre-refactor
// implementation's regions — same areas and statistics to the bit, same
// order, same drill counters — with and without the protection phase,
// across grid resolutions, region counts (including more than the grid
// has cells) and throttle fractions.
func TestGridReduceMatchesOracle(t *testing.T) {
	r := rng.New(30)
	for rep := 0; rep < 400; rep++ {
		alpha := []int{1, 2, 4, 8, 16, 32}[r.Intn(6)]
		g := genGrid(r, alpha, rep%5 == 4)
		cfg := Config{
			L:     []int{1, 4, 10, 40, 100, 250, 2000}[r.Intn(7)],
			Z:     []float64{0, 0.1, 0.3, 0.5, 0.9, 1}[r.Intn(6)],
			Curve: curve(),
		}
		if rep%2 == 1 {
			cfg.ProtectQueries = []float64{0.1, 0.33, 0.67, 1}[r.Intn(4)]
		}
		want, err := oracleGridReduce(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := GridReduce(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameRegions(got, want); err != nil {
			t.Fatalf("rep %d alpha=%d L=%d z=%v protect=%v: %v", rep, alpha, cfg.L, cfg.Z, cfg.ProtectQueries, err)
		}
	}
}

// A grid made of four identical quarters ties them on risk. The protection
// phase used to break such ties by map iteration order, so the same input
// gave several partitionings; it must give one.
func TestProtectTieBreakDeterministic(t *testing.T) {
	g := genGrid(rng.New(31), 16, true)
	if _, m := g.Totals(); m == 0 {
		t.Fatal("generated grid has no queries; pick another seed")
	}
	cfg := Config{L: 10, Z: 0.5, Curve: curve(), ProtectQueries: 0.67}
	first, err := GridReduce(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Drill.ProtectSplits == 0 {
		t.Fatal("the protection phase never ran; the test is not testing it")
	}
	for i := 1; i < 200; i++ {
		p, err := GridReduce(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameRegions(p, first); err != nil {
			t.Fatalf("call %d partitioned differently: %v", i, err)
		}
	}
}

// The complexity claim as counts: at the paper's grid resolution, reaching
// the target takes exactly (target − 1)/3 splits, and one accuracy gain —
// at most one four-region greedy run — per node pushed: the root and four
// children per split.
func TestGridReduceWorkCounts(t *testing.T) {
	for _, l := range []int{250, 1000, 4000} {
		var sc scratch
		p, err := sc.gridReduce(skewedGrid(AlphaFor(l, 10)), Config{L: l, Z: 0.5, Curve: curve()})
		if err != nil {
			t.Fatal(err)
		}
		target := ValidRegionCount(l)
		if splits := p.Drill.SplitsTaken; len(p.Regions) != target || splits != (target-1)/3 || sc.evals != 4*splits+1 {
			t.Errorf("l=%d: %d regions from %d splits and %d gain evaluations, want %d from %d and %d",
				l, len(p.Regions), splits, sc.evals, target, (target-1)/3, 4*((target-1)/3)+1)
		}
	}
}

// Steady state, GridReduce allocates the Partitioning it returns (the
// struct and its region slice) and nothing else: the pyramid, the frontier
// and the greedy scratch are pooled. The bound leaves room for -race,
// under which sync.Pool drops a quarter of its Puts and the scratch is
// rebuilt.
func TestAllocsGridReduce(t *testing.T) {
	g := skewedGrid(256)
	cfg := Config{L: 1000, Z: 0.3, Curve: curve()}
	if _, err := GridReduce(g, cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := GridReduce(g, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("GridReduce allocates %.0f/op at l=1000 in steady state, want the Partitioning only (≤ 8)", allocs)
	}
}
