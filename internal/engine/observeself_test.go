package engine_test

import (
	"fmt"
	"math"
	"testing"

	"lira/internal/cqserver"
	"lira/internal/engine"
	"lira/internal/geo"
	"lira/internal/rng"
	"lira/internal/statgrid"
)

// legacyStats carries the fields netsvc's per-tick statistics refresh
// read before Engine.ObserveSelf existed, so the refresh's body below is
// kept verbatim as the oracle ObserveSelf is held to.
type legacyStats struct {
	eng    engine.Engine
	cfg    struct{ Core cqserver.Config }
	obsPos []geo.Point
	obsSpd []float64
}

// observeStatsLocked snapshots the motion table into the statistics grid.
// The snapshot buffers are pooled on the server (neither engine retains
// them past the call), so a steady-state tick allocates nothing here.
func (s *legacyStats) observeStatsLocked(now float64) {
	table := s.eng.Table()
	n := table.Len()
	s.obsPos, s.obsSpd = s.obsPos[:0], s.obsSpd[:0]
	for i := 0; i < n; i++ {
		rep, ok := table.Report(i)
		if !ok {
			continue
		}
		s.obsPos = append(s.obsPos, s.cfg.Core.Space.ClampPoint(rep.Predict(now)))
		s.obsSpd = append(s.obsSpd, rep.Vel.Len())
	}
	if len(s.obsPos) > 0 {
		s.eng.ObserveStatistics(s.obsPos, s.obsSpd)
	}
}

// gridDiff describes the first difference between two grids' observation
// state, every value compared bit for bit; "" when there is none.
func gridDiff(a, b *statgrid.Grid) string {
	if a.Samples() != b.Samples() {
		return fmt.Sprintf("samples %d vs %d", a.Samples(), b.Samples())
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for j := 0; j < a.Alpha(); j++ {
		for i := 0; i < a.Alpha(); i++ {
			na, ma, sa := a.Cell(i, j)
			nb, mb, sb := b.Cell(i, j)
			if !same(na, nb) || !same(ma, mb) || !same(sa, sb) {
				return fmt.Sprintf("cell (%d,%d): (%v %v %v) vs (%v %v %v)", i, j, na, ma, sa, nb, mb, sb)
			}
		}
	}
	na, ma := a.Totals()
	nb, mb := b.Totals()
	if !same(na, nb) || !same(ma, mb) {
		return fmt.Sprintf("totals (%v %v) vs (%v %v)", na, ma, nb, mb)
	}
	return ""
}

// TestObserveSelfMatchesSnapshot holds ObserveSelf to the snapshot loop it
// replaced: the same tick sequence run twice, once observing through
// ObserveSelf and once through the verbatim oracle, must leave
// bit-identical grids after every tick — on both engines, at a size that
// stays on the serial paths and at one that takes the parallel predict
// and fold paths. The cases are where reusing Evaluate's predictions is
// right (same instant, nothing applied since) and where it is not.
func TestObserveSelfMatchesSnapshot(t *testing.T) {
	type tick func(e engine.Engine, feed func(float64), now float64, observe func(float64))
	cases := []struct {
		name    string
		queries bool
		tick    tick
	}{
		{"reuse after Evaluate", true, func(e engine.Engine, feed func(float64), now float64, observe func(float64)) {
			feed(now)
			e.Evaluate(now)
			observe(now)
		}},
		{"drain between Evaluate and observe", true, func(e engine.Engine, feed func(float64), now float64, observe func(float64)) {
			feed(now - 0.5)
			e.Evaluate(now)
			feed(now)
			observe(now)
		}},
		{"degraded", true, func(e engine.Engine, feed func(float64), now float64, observe func(float64)) {
			feed(now)
			e.SetDegradedEval(now >= 2)
			e.Evaluate(now)
			observe(now)
		}},
		{"no queries", false, func(e engine.Engine, feed func(float64), now float64, observe func(float64)) {
			feed(now)
			observe(now)
		}},
		{"zero known nodes", true, func(e engine.Engine, _ func(float64), now float64, observe func(float64)) {
			e.Evaluate(now)
			observe(now)
		}},
		{"different now", true, func(e engine.Engine, feed func(float64), now float64, observe func(float64)) {
			feed(now)
			e.Evaluate(now)
			observe(now + 0.25)
		}},
	}
	for _, nodes := range []int{walkers, 5000} {
		cfg := baseConfig()
		cfg.Nodes = nodes + len(edgeReports())
		queries := append(testQueries(rng.New(3)), edgeQueries()...)
		for _, tc := range cases {
			for _, kind := range engineKinds {
				for _, seed := range []uint64{1, 7} {
					got := newEngine(t, cfg, kind.shards)
					ref := &legacyStats{eng: newEngine(t, cfg, kind.shards)}
					ref.cfg.Core = cfg
					if tc.queries {
						got.RegisterQueries(queries)
						ref.eng.RegisterQueries(queries)
					}
					feedGot, feedRef := sparseFeed(got, seed, nodes), sparseFeed(ref.eng, seed, nodes)
					for step := 0; step < 5; step++ {
						now := float64(step)
						tc.tick(got, feedGot, now, got.ObserveSelf)
						tc.tick(ref.eng, feedRef, now, ref.observeStatsLocked)
						if d := gridDiff(got.StatsGrid(), ref.eng.StatsGrid()); d != "" {
							t.Fatalf("N=%d %s %s seed %d t=%v: ObserveSelf grid differs from the snapshot oracle: %s",
								nodes, tc.name, kind.name, seed, now, d)
						}
					}
				}
			}
		}
	}
}
