package engine_test

import (
	"slices"
	"testing"

	"lira/internal/cqserver"
	"lira/internal/engine"
	"lira/internal/geo"
	"lira/internal/motion"
	"lira/internal/rng"
	"lira/internal/shard"
)

// engineKinds are the engines the registration and observation tests
// run: the unsharded server, and the sharded one at K ∈ {1, 2, 4}.
var engineKinds = []struct {
	name   string
	shards int // 0: the unsharded server
}{
	{"cqserver", 0}, {"shard/K=1", 1}, {"shard/K=2", 2}, {"shard/K=4", 4},
}

func newEngine(t *testing.T, cfg cqserver.Config, shards int) engine.Engine {
	t.Helper()
	var e engine.Engine
	var err error
	if shards == 0 {
		e, err = engine.New(cfg, 1)
	} else {
		e, err = shard.New(shard.Config{Core: cfg, Shards: shards})
	}
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// edgeQueries are rects whose boundaries edgeReports' nodes sit on
// exactly, or are clamped onto from outside the space.
func edgeQueries() []geo.Rect {
	return []geo.Rect{
		geo.NewRect(200, 200, 600, 600),
		{MinX: 1000, MinY: 0, MaxX: 1000, MaxY: 1000},    // zero width, on the east border
		{MinX: 900, MinY: -100, MaxX: 1200, MaxY: 1100},  // overhangs the space
		{MinX: 1100, MinY: 1100, MaxX: 1200, MaxY: 1200}, // wholly outside
		{MinX: 0, MinY: 0, MaxX: 0, MaxY: 0},             // the south-west corner
	}
}

// edgeReports places nodes on the edges and corners of edgeQueries()[0],
// and nodes whose dead reckoning overshoots the space, so their clamped
// positions land on the border.
func edgeReports() []motion.Report {
	return []motion.Report{
		{Pos: geo.Point{X: 200, Y: 300}},
		{Pos: geo.Point{X: 600, Y: 600}},
		{Pos: geo.Point{X: 400, Y: 200}},
		{Pos: geo.Point{X: 600, Y: 199.99}},
		{Pos: geo.Point{X: 0, Y: 0}},
		{Pos: geo.Point{X: 990, Y: 500}, Vel: geo.Vector{X: 50}},
		{Pos: geo.Point{X: 10, Y: 10}, Vel: geo.Vector{X: -30, Y: -30}},
		{Pos: geo.Point{X: 500, Y: 995}, Vel: geo.Vector{Y: 80}},
	}
}

// The workload nodes are ids [0, walkers): only every third one ever
// reports, so the known set is sparse. edgeReports take the ids from
// walkers on, and baseConfig's remaining ids never report.
const walkers = 100

// sparseFeed returns a feeder for e: each call ingests and drains the
// workload's next step at t (its every-third nodes), plus, on the first
// call, the edge nodes.
func sparseFeed(e engine.Engine, seed uint64, nodes int) func(t float64) {
	w := newWorkload(seed, nodes)
	first := true
	return func(t float64) {
		for _, u := range w.step(t) {
			if u.Node%3 == 0 {
				e.IngestShedOldest(u)
			}
		}
		if first {
			for i, rep := range edgeReports() {
				e.IngestShedOldest(cqserver.Update{Node: nodes + i, Report: rep})
			}
			first = false
		}
		e.Drain(-1)
	}
}

func cloneResults(rs [][]int) [][]int {
	out := make([][]int, len(rs))
	for i, r := range rs {
		out[i] = slices.Clone(r)
	}
	return out
}

// TestEvaluateQueryMatchesEvaluate pins the registration path to the
// full evaluation on both engines, over a sparse known set, nodes exactly
// on query edges and nodes clamped onto the border from outside.
func TestEvaluateQueryMatchesEvaluate(t *testing.T) {
	t.Run("normal", evaluateQueryNormal)
	t.Run("degraded", evaluateQueryDegraded)
}

// evaluateQueryNormal: for every query, EvaluateQuery must return exactly
// Evaluate's ids — whether it runs after Evaluate at the same instant or
// ahead of it at a later one — and must leave every other result slot
// alone.
func evaluateQueryNormal(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		queries := append(testQueries(rng.New(seed*11)), edgeQueries()...)
		for _, kind := range engineKinds {
			e := newEngine(t, baseConfig(), kind.shards)
			e.RegisterQueries(queries)
			feed := sparseFeed(e, seed, walkers)
			for step := 0; step < 6; step++ {
				now := float64(step)
				feed(now)
				res := e.Evaluate(now)
				want := cloneResults(res)
				for qi := range queries {
					if got := e.EvaluateQuery(now, qi); !slices.Equal(got, want[qi]) {
						t.Fatalf("seed %d %s t=%v q%d: EvaluateQuery = %v, Evaluate = %v", seed, kind.name, now, qi, got, want[qi])
					}
				}
				later, qi := now+0.5, step%len(queries)
				got := slices.Clone(e.EvaluateQuery(later, qi))
				for j := range queries {
					if j != qi && !slices.Equal(res[j], want[j]) {
						t.Fatalf("seed %d %s t=%v: EvaluateQuery(q%d) rewrote slot %d", seed, kind.name, later, qi, j)
					}
				}
				if w := e.Evaluate(later)[qi]; !slices.Equal(got, w) {
					t.Fatalf("seed %d %s t=%v q%d: EvaluateQuery = %v, Evaluate = %v", seed, kind.name, later, qi, got, w)
				}
			}
			// The fixture reaches the edges: the corner query holds the node
			// sitting on it and the one clamped into it.
			if got := e.EvaluateQuery(6, len(queries)-1); !slices.Contains(got, walkers+4) || !slices.Contains(got, walkers+6) {
				t.Fatalf("seed %d %s: corner query = %v, want nodes %d and %d in it", seed, kind.name, got, walkers+4, walkers+6)
			}
		}
	}
}

// evaluateQueryDegraded: at the critical rung a registration answer is
// the degraded refresh of that one slot, so answering every query one by
// one must give the results of one degraded Evaluate on a twin engine.
func evaluateQueryDegraded(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		queries := append(testQueries(rng.New(seed*11)), edgeQueries()...)
		for _, kind := range engineKinds {
			a := newEngine(t, baseConfig(), kind.shards)
			b := newEngine(t, baseConfig(), kind.shards)
			feedA, feedB := sparseFeed(a, seed, walkers), sparseFeed(b, seed, walkers)
			for _, e := range []engine.Engine{a, b} {
				e.RegisterQueries(queries)
			}
			now := 0.0
			for ; now < 5; now++ {
				feedA(now)
				feedB(now)
			}
			a.Evaluate(now)
			b.Evaluate(now)
			a.SetDegradedEval(true)
			b.SetDegradedEval(true)
			for _, later := range []float64{now + 1, now + 3, now + 9} {
				feedA(later)
				feedB(later)
				want := b.Evaluate(later)
				for qi := range queries {
					if got := a.EvaluateQuery(later, qi); !slices.Equal(got, want[qi]) {
						t.Fatalf("seed %d %s t=%v q%d: degraded EvaluateQuery = %v, degraded Evaluate = %v", seed, kind.name, later, qi, got, want[qi])
					}
				}
			}
		}
	}
}
