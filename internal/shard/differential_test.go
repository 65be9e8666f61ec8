package shard

import (
	"math"
	"testing"

	"lira/internal/cqserver"
	"lira/internal/geo"
	"lira/internal/motion"
	"lira/internal/rng"
)

// workload is a deterministic mobile-node simulation shared by the
// differential runs: nodes bounce around the space, emitting position
// reports with per-tick probability.
type workload struct {
	r        *rng.Rand
	pos      []geo.Point
	vel      []geo.Vector
	speeds   []float64
	nodes    int
	reportsP float64
}

func newWorkload(seed uint64, nodes int) *workload {
	w := &workload{
		r:        rng.New(seed),
		pos:      make([]geo.Point, nodes),
		vel:      make([]geo.Vector, nodes),
		speeds:   make([]float64, nodes),
		nodes:    nodes,
		reportsP: 0.4,
	}
	sp := space()
	for i := 0; i < nodes; i++ {
		w.pos[i] = geo.Point{X: w.r.Range(sp.MinX, sp.MaxX), Y: w.r.Range(sp.MinY, sp.MaxY)}
		w.vel[i] = geo.Vector{X: w.r.Range(-40, 40), Y: w.r.Range(-40, 40)}
		w.speeds[i] = math.Hypot(w.vel[i].X, w.vel[i].Y)
	}
	return w
}

// step advances all nodes by dt (bouncing off walls) and returns the
// updates emitted this tick.
func (w *workload) step(t, dt float64) []cqserver.Update {
	sp := space()
	var ups []cqserver.Update
	for i := 0; i < w.nodes; i++ {
		w.pos[i].X += w.vel[i].X * dt
		w.pos[i].Y += w.vel[i].Y * dt
		if w.pos[i].X < sp.MinX || w.pos[i].X > sp.MaxX {
			w.vel[i].X = -w.vel[i].X
			w.pos[i].X += 2 * w.vel[i].X * dt
		}
		if w.pos[i].Y < sp.MinY || w.pos[i].Y > sp.MaxY {
			w.vel[i].Y = -w.vel[i].Y
			w.pos[i].Y += 2 * w.vel[i].Y * dt
		}
		w.pos[i] = sp.ClampPoint(w.pos[i])
		w.speeds[i] = math.Hypot(w.vel[i].X, w.vel[i].Y)
		if w.r.Bool(w.reportsP) {
			ups = append(ups, cqserver.Update{
				Node:   i,
				Report: motion.Report{Pos: w.pos[i], Vel: w.vel[i], Time: t},
			})
		}
	}
	return ups
}

// testQueries mixes shard-friendly and shard-hostile shapes: the full
// space, rects spanning several shard bands, a rect aligned exactly on a
// K=4 boundary, and random boxes.
func testQueries(r *rng.Rand) []geo.Rect {
	sp := space()
	qs := []geo.Rect{
		sp,
		{MinX: 100, MinY: 100, MaxX: 900, MaxY: 300},
		{MinX: 250, MinY: 0, MaxX: 500, MaxY: 1000},  // exact shard-1 band at K=4
		{MinX: 499, MinY: 400, MaxX: 501, MaxY: 600}, // straddles the K=2 boundary
	}
	for i := 0; i < 6; i++ {
		x0, y0 := r.Range(sp.MinX, sp.MaxX), r.Range(sp.MinY, sp.MaxY)
		qs = append(qs, geo.Rect{
			MinX: x0, MinY: y0,
			MaxX: math.Min(sp.MaxX, x0+r.Range(20, 400)),
			MaxY: math.Min(sp.MaxY, y0+r.Range(20, 400)),
		})
	}
	return qs
}

func equalResults(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestDifferentialMatrix is the tentpole equivalence test: for every
// (seed, K) cell, the sharded server must report byte-identical query
// results, the identical THROTLOOP z, and (speed factor off) bit-identical
// GREEDYINCREMENT Δᵢ to the unsharded reference over the same
// no-overflow ingest sequence.
func TestDifferentialMatrix(t *testing.T) {
	const (
		nodes  = 120
		ticks  = 25
		dt     = 1.0
		window = ticks * dt
	)
	for _, seed := range []uint64{1, 2, 3} {
		for _, k := range []int{1, 2, 4, 8} {
			ref, err := cqserver.New(cqserver.Config{
				Space: space(), Nodes: nodes, L: 13,
				Curve: baseConfig().Core.Curve, QueueSize: 100000,
			})
			if err != nil {
				t.Fatal(err)
			}
			sh := testSharded(t, k, func(c *Config) {
				c.Core.Nodes = nodes
				c.Core.QueueSize = 100000
			})
			qs := testQueries(rng.New(seed).Split(99))
			ref.RegisterQueries(qs)
			sh.RegisterQueries(qs)
			w := newWorkload(seed, nodes)
			for tick := 1; tick <= ticks; tick++ {
				now := float64(tick) * dt
				for _, u := range w.step(now, dt) {
					if ref.IngestShedOldest(u) || sh.IngestShedOldest(u) {
						t.Fatalf("seed %d K=%d: overflow in no-overflow regime", seed, k)
					}
				}
				ref.Drain(-1)
				sh.Drain(-1)
				ref.ObserveStatistics(w.pos, w.speeds)
				sh.ObserveStatistics(w.pos, w.speeds)
				ref.ObserveBusy(0.5)
				sh.ObserveBusy(0.5)
				rr := ref.Evaluate(now)
				sr := sh.Evaluate(now)
				if !equalResults(rr, sr) {
					t.Fatalf("seed %d K=%d tick %d: query results diverged", seed, k, tick)
				}
			}
			ra, err := ref.AdaptAuto(window)
			if err != nil {
				t.Fatal(err)
			}
			sa, err := sh.AdaptAuto(window)
			if err != nil {
				t.Fatal(err)
			}
			if ra.Z != sa.Z {
				t.Fatalf("seed %d K=%d: z diverged: ref %v, sharded %v", seed, k, ra.Z, sa.Z)
			}
			if len(ra.Deltas) != len(sa.Deltas) {
				t.Fatalf("seed %d K=%d: region count diverged: %d vs %d",
					seed, k, len(ra.Deltas), len(sa.Deltas))
			}
			for i := range ra.Deltas {
				if ra.Deltas[i] != sa.Deltas[i] {
					t.Fatalf("seed %d K=%d: Δ[%d] diverged: ref %v, sharded %v",
						seed, k, i, ra.Deltas[i], sa.Deltas[i])
				}
			}
			if ra.BudgetMet != sa.BudgetMet {
				t.Fatalf("seed %d K=%d: BudgetMet diverged", seed, k)
			}
		}
	}
}

// TestSeedStability pins run-to-run determinism at K>1: two full drives
// of the same seed produce identical per-tick results and adaptations.
func TestSeedStability(t *testing.T) {
	const nodes, ticks = 120, 20
	run := func() ([][][]int, []float64, float64) {
		sh := testSharded(t, 4, func(c *Config) {
			c.Core.Nodes = nodes
			c.Core.QueueSize = 100000
		})
		sh.RegisterQueries(testQueries(rng.New(7).Split(99)))
		w := newWorkload(7, nodes)
		var history [][][]int
		for tick := 1; tick <= ticks; tick++ {
			now := float64(tick)
			for _, u := range w.step(now, 1) {
				sh.IngestShedOldest(u)
			}
			sh.Drain(-1)
			sh.ObserveStatistics(w.pos, w.speeds)
			sh.ObserveBusy(0.5)
			res := sh.Evaluate(now)
			snap := make([][]int, len(res))
			for i, ids := range res {
				snap[i] = append([]int(nil), ids...)
			}
			history = append(history, snap)
		}
		a, err := sh.AdaptAuto(float64(ticks))
		if err != nil {
			t.Fatal(err)
		}
		return history, append([]float64(nil), a.Deltas...), a.Z
	}
	h1, d1, z1 := run()
	h2, d2, z2 := run()
	if z1 != z2 {
		t.Fatalf("z diverged between runs: %v vs %v", z1, z2)
	}
	for tick := range h1 {
		if !equalResults(h1[tick], h2[tick]) {
			t.Fatalf("tick %d: results diverged between identical runs", tick+1)
		}
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("Δ[%d] diverged between identical runs: %v vs %v", i, d1[i], d2[i])
		}
	}
}

// TestOverflowEquality pins overload behaviour as independent of K: under
// shed-oldest pressure the sharded server admits, sheds, and applies
// exactly the updates the unsharded server does, at every shard count —
// same shed count, same surviving reports in the motion table, same query
// results. The hot-band case squeezes every report into the westmost band
// of the K=8 geometry: admission is not partitioned, so a spatial hot spot
// still has the whole bound B to queue in.
func TestOverflowEquality(t *testing.T) {
	const nodes, ticks, b = 120, 25, 16
	cases := []struct {
		name    string
		squeeze float64 // reports land in x ∈ [0, squeeze·width]
	}{
		{"spread", 1},
		{"hot-band", 0.1},
	}
	for _, tc := range cases {
		for _, k := range []int{1, 2, 4, 8} {
			ref, err := cqserver.New(cqserver.Config{
				Space: space(), Nodes: nodes, L: 13,
				Curve: baseConfig().Core.Curve, QueueSize: b,
			})
			if err != nil {
				t.Fatal(err)
			}
			sh := testSharded(t, k, func(c *Config) {
				c.Core.Nodes = nodes
				c.Core.QueueSize = b
			})
			if sh.QueueCap() != b {
				t.Fatalf("%s K=%d: queue bound %d, want exactly %d", tc.name, k, sh.QueueCap(), b)
			}
			qs := testQueries(rng.New(5).Split(99))
			ref.RegisterQueries(qs)
			sh.RegisterQueries(qs)
			w := newWorkload(5, nodes)
			for tick := 1; tick <= ticks; tick++ {
				now := float64(tick)
				for _, u := range w.step(now, 1) {
					u.Report.Pos.X *= tc.squeeze
					u.Report.Vel.X *= tc.squeeze
					if ref.IngestShedOldest(u) != sh.IngestShedOldest(u) {
						t.Fatalf("%s K=%d tick %d: shed decision diverged", tc.name, k, tick)
					}
				}
				// Drain only part of the backlog so the queue stays saturated.
				ref.Drain(b / 2)
				sh.Drain(b / 2)
				if ref.QueueLen() != sh.QueueLen() {
					t.Fatalf("%s K=%d tick %d: queue length diverged: ref %d, sharded %d",
						tc.name, k, tick, ref.QueueLen(), sh.QueueLen())
				}
				for id := 0; id < nodes; id++ {
					rr, rok := ref.Table().Report(id)
					sr, sok := sh.Table().Report(id)
					if rok != sok || rr != sr {
						t.Fatalf("%s K=%d tick %d: node %d survivor diverged: ref %+v, sharded %+v",
							tc.name, k, tick, id, rr, sr)
					}
				}
				if !equalResults(ref.Evaluate(now), sh.Evaluate(now)) {
					t.Fatalf("%s K=%d tick %d: results diverged under overflow", tc.name, k, tick)
				}
			}
			if ref.Dropped() == 0 {
				t.Fatalf("%s: workload never overflowed the queue", tc.name)
			}
			if ref.Dropped() != sh.Dropped() || ref.Arrived() != sh.Arrived() || ref.Applied() != sh.Applied() {
				t.Fatalf("%s K=%d: accounting diverged: ref dropped/arrived/applied %d/%d/%d, sharded %d/%d/%d",
					tc.name, k, ref.Dropped(), ref.Arrived(), ref.Applied(),
					sh.Dropped(), sh.Arrived(), sh.Applied())
			}
		}
	}
}

// TestDrainLimitIsFIFOPrefix pins Drain(limit) at every K: the records it
// applies are the oldest limit arrivals, wherever in space they lie — a
// drain budget never starves a band.
func TestDrainLimitIsFIFOPrefix(t *testing.T) {
	const n, limit = 40, 15
	for _, k := range []int{1, 2, 4, 8} {
		sh := testSharded(t, k, nil)
		for i := 0; i < n; i++ {
			// Consecutive arrivals hop between bands, east first.
			x := float64((n-1-i)*379%1000) + 0.5
			sh.IngestShedOldest(cqserver.Update{Node: i, Report: motion.Report{Pos: geo.Point{X: x, Y: 500}}})
		}
		if got := sh.Drain(limit); got != limit {
			t.Fatalf("K=%d: Drain(%d) applied %d", k, limit, got)
		}
		for i := 0; i < n; i++ {
			if known := sh.Table().Known(i); known != (i < limit) {
				t.Fatalf("K=%d: arrival %d applied=%v after Drain(%d), want the FIFO prefix", k, i, known, limit)
			}
		}
		if sh.QueueLen() != n-limit {
			t.Fatalf("K=%d: %d left queued, want %d", k, sh.QueueLen(), n-limit)
		}
	}
}
