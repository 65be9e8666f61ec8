// Package partition implements GRIDREDUCE (§3.2, Algorithm 1): the
// region-aware partitioning of the monitored space into l shedding
// regions.
//
// Stage I builds a complete quad-tree over the α×α statistics grid and
// aggregates node counts, query counts, and speeds bottom-up. Stage II
// drills down from the root, always splitting the explored region with the
// highest accuracy gain V[t] = E[t] − E_p[t], where E and E_p are the
// optimal inaccuracies of keeping the region whole versus splitting it in
// four — each computed with the GREEDYINCREMENT core. The package also
// provides the uniform l-partitioning used by the Lira-Grid baseline.
package partition

import (
	"fmt"
	"math"
	"sync"

	"lira/internal/container/iheap"
	"lira/internal/fmodel"
	"lira/internal/geo"
	"lira/internal/statgrid"
	"lira/internal/throttler"
)

// Region is one shedding region with its aggregated statistics.
type Region struct {
	Area geo.Rect
	// N is the average number of mobile nodes in the region, M the
	// fractional query count, and S the average node speed.
	N, M, S float64
}

// Stat returns the region's statistics in the optimizer's input form.
func (r Region) Stat() throttler.RegionStat {
	return throttler.RegionStat{N: r.N, M: r.M, S: r.S}
}

// DrillStats summarizes the Stage-II drill-down decisions behind a
// partitioning, for the telemetry decision journal.
type DrillStats struct {
	// SplitsTaken counts gain-driven expansions of a region into its four
	// children; SplitsRejected counts popped regions that turned out to be
	// unsplittable grid-cell leaves; ProtectSplits counts splits spent by
	// the query-protection phase.
	SplitsTaken    int
	SplitsRejected int
	ProtectSplits  int
}

// Partitioning is a disjoint cover of the monitored space by shedding
// regions.
type Partitioning struct {
	Space   geo.Rect
	Regions []Region
	// Drill reports how GridReduce arrived at the regions; zero for the
	// Uniform and Single constructions.
	Drill DrillStats
}

// Stats returns the per-region statistics in the optimizer's input form.
func (p *Partitioning) Stats() []throttler.RegionStat {
	out := make([]throttler.RegionStat, len(p.Regions))
	for i, r := range p.Regions {
		out[i] = r.Stat()
	}
	return out
}

// Locate returns the index of the region containing point pt, or -1 when
// pt is outside the space. Linear scan; the mobile-node side uses
// mobilenode.Index for O(1) lookup instead.
func (p *Partitioning) Locate(pt geo.Point) int {
	for i, r := range p.Regions {
		if r.Area.Contains(pt) {
			return i
		}
	}
	// The half-open convention excludes the space's top and right edges;
	// tolerate boundary points by a closed-containment second pass.
	for i, r := range p.Regions {
		if r.Area.ContainsClosed(pt) {
			return i
		}
	}
	return -1
}

// ValidRegionCount returns the largest region count ≤ l reachable by
// quad-tree drill-down, i.e. the largest value ≤ l with count ≡ 1 (mod 3).
// GRIDREDUCE targets this count; the paper assumes l mod 3 = 1 outright.
func ValidRegionCount(l int) int {
	if l < 1 {
		return 1
	}
	return l - (l-1)%3
}

// Config parameterizes GridReduce.
type Config struct {
	// L is the desired number of shedding regions. It is rounded down to
	// the nearest valid count (≡ 1 mod 3).
	L int
	// Z is the throttle fraction used inside the accuracy-gain
	// computation.
	Z float64
	// Curve is the update reduction function.
	Curve *fmodel.Curve
	// ProtectQueries is an extension beyond the paper (see DESIGN.md
	// §5a): it reserves this fraction of the drill-down splits for the
	// query-bearing regions with the highest node-to-query mass ratio —
	// the regions whose queries the global throttler setting is most
	// likely to sacrifice. Zero (the default) is the paper's exact
	// algorithm.
	ProtectQueries float64
}

// AlphaFor returns the statistics-grid resolution α = 2^⌊log₂(x·√l)⌋ from
// §3.2.5; x = 10 gives the paper's ≈100× area flexibility.
func AlphaFor(l int, x float64) int {
	if l < 1 {
		l = 1
	}
	if x <= 0 {
		x = 10
	}
	e := int(math.Floor(math.Log2(x * math.Sqrt(float64(l)))))
	if e < 0 {
		e = 0
	}
	return 1 << e
}

// scratch is GridReduce's reusable working state. Stage I's pyramid is one
// flat arena in 4-ary heap order: node 0 is the whole space and node t's
// quadrants are 4t+1 … 4t+4 (west-south, east-south, west-north,
// east-north), so a node is an int, its children are one contiguous
// slice, and the levels need no tables of their own. The arena stops above
// the leaf level — three quarters of the pyramid, and the drill-down
// seldom gets there: a grid cell's statistics are read from the grid when
// asked for. Nothing in a scratch outlives the call: the returned
// Partitioning is built from copies, and the grid is let go on return.
type scratch struct {
	grid   *statgrid.Grid
	leaf0  int                     // first node of the leaf level, (α²−1)/3
	arena  []throttler.RegionStat  // nodes 0 … leaf0−1
	kids   [4]throttler.RegionStat // the children of a bottom-level node, gathered from the grid
	heap   iheap.Heap              // explored, still-splittable frontier by accuracy gain
	nodes  []int                   // frontier node per heap id, in push order; -1 once taken
	leaves []int                   // popped grid-cell leaves
	greedy throttler.Greedy
	evals  int // accuracy gains computed, read by the complexity test
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// deinterleave gathers the even bits of v: the column of a node's offset
// within its level (the row is deinterleave(v >> 1)).
func deinterleave(v int) int {
	x := uint32(v) & 0x55555555
	x = (x | x>>1) & 0x33333333
	x = (x | x>>2) & 0x0f0f0f0f
	x = (x | x>>4) & 0x00ff00ff
	x = (x | x>>8) & 0x0000ffff
	return int(x)
}

// rect returns the area node t covers.
func (sc *scratch) rect(t int) geo.Rect {
	first, side := 0, 1 // first node and cells per side of t's level
	for 4*first+1 <= t {
		first, side = 4*first+1, 2*side
	}
	col, row := deinterleave(t-first), deinterleave((t-first)>>1)
	space := sc.grid.Space()
	w := space.Width() / float64(side)
	h := space.Height() / float64(side)
	return geo.Rect{
		MinX: space.MinX + float64(col)*w,
		MinY: space.MinY + float64(row)*h,
		MaxX: space.MinX + float64(col+1)*w,
		MaxY: space.MinY + float64(row+1)*h,
	}
}

// stat returns node t's aggregated statistics.
func (sc *scratch) stat(t int) throttler.RegionStat {
	if t < sc.leaf0 {
		return sc.arena[t]
	}
	k := t - sc.leaf0
	n, m, s := sc.grid.Cell(deinterleave(k), deinterleave(k>>1))
	return throttler.RegionStat{N: n, M: m, S: s}
}

// children returns the statistics of node t's four quadrants, valid until
// the next call.
func (sc *scratch) children(t int) []throttler.RegionStat {
	if 4*t+1 < sc.leaf0 {
		return sc.arena[4*t+1 : 4*t+5]
	}
	for q := range sc.kids {
		sc.kids[q] = sc.stat(4*t + 1 + q)
	}
	return sc.kids[:]
}

// build aggregates the statistics grid bottom-up (Stage I, O(α²)). The
// grid's alpha must be a power of two.
func (sc *scratch) build(g *statgrid.Grid) error {
	alpha := g.Alpha()
	if alpha&(alpha-1) != 0 {
		return fmt.Errorf("partition: alpha %d is not a power of two", alpha)
	}
	sc.grid = g
	sc.leaf0 = (alpha*alpha - 1) / 3
	if cap(sc.arena) < sc.leaf0 {
		sc.arena = make([]throttler.RegionStat, sc.leaf0)
	}
	sc.arena = sc.arena[:sc.leaf0]
	// Upward aggregation: n and m sum; s is the node-weighted mean.
	for t := sc.leaf0 - 1; t >= 0; t-- {
		var n, m, sw, sum float64
		for _, ch := range sc.children(t) {
			n += ch.N
			m += ch.M
			sw += ch.N * ch.S
			sum += ch.S
		}
		// Preserve a plausible speed for empty regions: plain mean of
		// children.
		s := sum / 4
		if n > 0 {
			s = sw / n
		}
		sc.arena[t] = throttler.RegionStat{N: n, M: m, S: s}
	}
	return nil
}

// accuracyGain computes V[t] = E[t] − E_p[t] (CALCERRGAIN in Algorithm 1):
// the reduction in optimal inaccuracy from splitting node t into its four
// children, under throttle fraction z.
func (sc *scratch) accuracyGain(t int, z float64, curve *fmodel.Curve) float64 {
	sc.evals++
	if t >= sc.leaf0 {
		return 0 // grid-cell leaf: no further partitioning is possible
	}
	// E: one region. The optimal single Δ is the smallest with
	// f(Δ) ≤ z·f(Δ⊢).
	e := sc.stat(t).M * curve.Invert(z)
	ep := sc.greedy.InAcc(sc.children(t), curve, z)
	if gain := e - ep; gain > 0 {
		return gain
	}
	return 0
}

// push adds node t to the frontier under the next heap id.
func (sc *scratch) push(t int, z float64, curve *fmodel.Curve) {
	sc.heap.Push(len(sc.nodes), sc.accuracyGain(t, z, curve))
	sc.nodes = append(sc.nodes, t)
}

// split replaces frontier entry id, already off the heap, by its node's
// four children.
func (sc *scratch) split(id int, z float64, curve *fmodel.Curve) {
	t := sc.nodes[id]
	sc.nodes[id] = -1
	for ch := 4*t + 1; ch <= 4*t+4; ch++ {
		sc.push(ch, z, curve)
	}
}

// GridReduce builds the (α,l)-partitioning over the statistics grid. The
// result is freshly allocated and the caller's to keep.
func GridReduce(g *statgrid.Grid, cfg Config) (*Partitioning, error) {
	if cfg.Curve == nil {
		return nil, fmt.Errorf("partition: nil curve")
	}
	if cfg.Z < 0 || cfg.Z > 1 {
		return nil, fmt.Errorf("partition: throttle fraction %v outside [0,1]", cfg.Z)
	}
	if cfg.L < 1 {
		return nil, fmt.Errorf("partition: non-positive region count %d", cfg.L)
	}
	sc := scratchPool.Get().(*scratch)
	defer func() {
		sc.grid = nil
		scratchPool.Put(sc)
	}()
	return sc.gridReduce(g, cfg)
}

func (sc *scratch) gridReduce(g *statgrid.Grid, cfg Config) (*Partitioning, error) {
	if err := sc.build(g); err != nil {
		return nil, err
	}
	target := ValidRegionCount(cfg.L)
	z, curve := cfg.Z, cfg.Curve

	// Reserve a fraction of the splits for the query-protection phase.
	totalSplits := (target - 1) / 3
	protectSplits := 0
	if cfg.ProtectQueries > 0 {
		protectSplits = int(cfg.ProtectQueries * float64(totalSplits))
	}
	mainTarget := target - 3*protectSplits

	// Stage II: drill down by accuracy gain. The heap holds explored,
	// still-splittable nodes; leaves move to the final list.
	h := &sc.heap
	frontier := min(4*totalSplits+1, 4*sc.leaf0+1) // pushes: root + 4 per split, each a distinct node
	h.Reset(frontier)
	if cap(sc.nodes) < frontier {
		sc.nodes = make([]int, 0, frontier)
	}
	sc.nodes, sc.leaves, sc.evals = sc.nodes[:0], sc.leaves[:0], 0
	var drill DrillStats
	sc.push(0, z, curve)
	for len(sc.leaves)+h.Len() < mainTarget && h.Len() > 0 {
		id, _ := h.PopMax()
		if t := sc.nodes[id]; t >= sc.leaf0 {
			drill.SplitsRejected++
			sc.leaves = append(sc.leaves, t)
			sc.nodes[id] = -1
			continue
		}
		drill.SplitsTaken++
		sc.split(id, z, curve)
	}

	// Protection phase (extension): split the splittable regions whose
	// queries are most exposed — large node mass per unit of query mass.
	// The frontier is scanned in push order and the first maximum wins, so
	// tied risks split the same region on every run.
	for s := 0; s < protectSplits; s++ {
		bestID, bestRisk := -1, 0.0
		for id, t := range sc.nodes {
			if t < 0 || t >= sc.leaf0 {
				continue // taken, or an unsplittable grid cell
			}
			if st := sc.arena[t]; st.M > 0 { // t < leaf0: an arena node
				if risk := st.N * st.S / st.M; risk > bestRisk {
					bestID, bestRisk = id, risk
				}
			}
		}
		if bestID == -1 {
			// Nothing protectable left: spend the split on gain.
			if h.Len() == 0 {
				break
			}
			if bestID, _ = h.PeekMax(); sc.nodes[bestID] >= sc.leaf0 {
				break
			}
		}
		h.Remove(bestID)
		drill.ProtectSplits++
		sc.split(bestID, z, curve)
	}

	p := &Partitioning{Space: g.Space(), Drill: drill, Regions: make([]Region, 0, len(sc.leaves)+h.Len())}
	emit := func(t int) {
		st := sc.stat(t)
		p.Regions = append(p.Regions, Region{Area: sc.rect(t), N: st.N, M: st.M, S: st.S})
	}
	for _, t := range sc.leaves {
		emit(t)
	}
	for h.Len() > 0 {
		id, _ := h.PopMax()
		emit(sc.nodes[id])
	}
	return p, nil
}

// Uniform builds the l-partitioning used by the Lira-Grid baseline:
// ⌊√l⌋ × ⌊√l⌋ equal regions with statistics aggregated from the grid by
// cell-center assignment.
func Uniform(g *statgrid.Grid, l int) (*Partitioning, error) {
	if l < 1 {
		return nil, fmt.Errorf("partition: non-positive region count %d", l)
	}
	k := int(math.Floor(math.Sqrt(float64(l))))
	if k < 1 {
		k = 1
	}
	space := g.Space()
	p := &Partitioning{Space: space}
	w := space.Width() / float64(k)
	h := space.Height() / float64(k)
	type agg struct{ n, m, sw, sn float64 }
	aggs := make([]agg, k*k)
	alpha := g.Alpha()
	for j := 0; j < alpha; j++ {
		for i := 0; i < alpha; i++ {
			n, m, s := g.Cell(i, j)
			c := g.CellRect(i, j).Center()
			ri := clampInt(int((c.X-space.MinX)/w), 0, k-1)
			rj := clampInt(int((c.Y-space.MinY)/h), 0, k-1)
			a := &aggs[rj*k+ri]
			a.n += n
			a.m += m
			a.sw += n * s
			a.sn += s
		}
	}
	cellsPerRegion := float64(alpha*alpha) / float64(k*k)
	for rj := 0; rj < k; rj++ {
		for ri := 0; ri < k; ri++ {
			a := aggs[rj*k+ri]
			s := 0.0
			if a.n > 0 {
				s = a.sw / a.n
			} else if cellsPerRegion > 0 {
				s = a.sn / cellsPerRegion
			}
			p.Regions = append(p.Regions, Region{
				Area: geo.Rect{
					MinX: space.MinX + float64(ri)*w,
					MinY: space.MinY + float64(rj)*h,
					MaxX: space.MinX + float64(ri+1)*w,
					MaxY: space.MinY + float64(rj+1)*h,
				},
				N: a.n, M: a.m, S: s,
			})
		}
	}
	return p, nil
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Single returns the trivial one-region partitioning covering the whole
// space, used by the Uniform Δ baseline.
func Single(g *statgrid.Grid) *Partitioning {
	t := &Partitioning{Space: g.Space()}
	var n, m, sw float64
	alpha := g.Alpha()
	count := 0.0
	var sSum float64
	for j := 0; j < alpha; j++ {
		for i := 0; i < alpha; i++ {
			cn, cm, cs := g.Cell(i, j)
			n += cn
			m += cm
			sw += cn * cs
			sSum += cs
			count++
		}
	}
	s := 0.0
	if n > 0 {
		s = sw / n
	} else if count > 0 {
		s = sSum / count
	}
	t.Regions = []Region{{Area: g.Space(), N: n, M: m, S: s}}
	return t
}
