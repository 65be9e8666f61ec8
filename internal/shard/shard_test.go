package shard

import (
	"testing"

	"lira/internal/cqserver"
	"lira/internal/fmodel"
	"lira/internal/geo"
	"lira/internal/motion"
)

func space() geo.Rect { return geo.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000} }

func baseConfig() Config {
	return Config{
		Core: cqserver.Config{
			Space: space(),
			Nodes: 120,
			L:     13,
			Curve: fmodel.Hyperbolic(5, 100, 95),
		},
	}
}

func testSharded(t *testing.T, k int, mutate func(*Config)) *Server {
	t.Helper()
	cfg := baseConfig()
	cfg.Shards = k
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	for _, k := range []int{-1, 33} { // alpha defaults to 32 for L=13
		cfg := baseConfig()
		cfg.Shards = k
		if _, err := New(cfg); err == nil {
			t.Errorf("Shards=%d: expected error", k)
		}
	}
	cfg := baseConfig()
	cfg.Core.Curve = nil
	if _, err := New(cfg); err == nil {
		t.Error("nil curve: expected error")
	}
}

func TestGeometryTiling(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4, 8, 32} {
		g, err := NewGeometry(space(), 32, k)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if g.Cell(0).MinX != space().MinX || g.Cell(k-1).MaxX != space().MaxX {
			t.Errorf("K=%d: cells do not span the space", k)
		}
		for s := 1; s < k; s++ {
			if g.Cell(s).MinX != g.Cell(s-1).MaxX && s != k-1 {
				t.Errorf("K=%d: gap between cell %d and %d", k, s-1, s)
			}
			// A point on the shared boundary belongs to the right-hand shard
			// and lies inside that shard's cell under closed containment.
			p := geo.Point{X: g.Cell(s).MinX, Y: 500}
			if got := g.ShardFor(p); got != s {
				t.Errorf("K=%d: boundary point of shard %d routed to %d", k, s, got)
			}
			if !g.Cell(s).ContainsClosed(p) {
				t.Errorf("K=%d: boundary point outside owning cell %d", k, s)
			}
		}
		// Outside-space points clamp to the border shards.
		if g.ShardFor(geo.Point{X: -5, Y: 0}) != 0 {
			t.Errorf("K=%d: left outlier not routed to shard 0", k)
		}
		if g.ShardFor(geo.Point{X: 2000, Y: 0}) != k-1 {
			t.Errorf("K=%d: right outlier not routed to shard %d", k, k-1)
		}
	}
}

func TestGeometryFragment(t *testing.T) {
	g, err := NewGeometry(space(), 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Shard 1 spans x ∈ [250, 500].
	if _, ok := g.Fragment(1, geo.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}); ok {
		t.Error("disjoint rect produced a fragment")
	}
	f, ok := g.Fragment(1, geo.Rect{MinX: 100, MinY: 100, MaxX: 600, MaxY: 200})
	if !ok || f.MinX != g.Cell(1).MinX || f.MaxX != g.Cell(1).MaxX {
		t.Errorf("spanning rect fragment = %+v, %v", f, ok)
	}
	// A rect that only touches the cell boundary keeps a degenerate
	// fragment: closed evaluation can still match nodes sitting on it.
	f, ok = g.Fragment(1, geo.Rect{MinX: 0, MinY: 0, MaxX: g.Cell(1).MinX, MaxY: 100})
	if !ok || f.MinX != f.MaxX {
		t.Errorf("touching rect fragment = %+v, %v (want degenerate)", f, ok)
	}
}

func TestResidencyFollowsReports(t *testing.T) {
	s := testSharded(t, 4, nil)
	rep := motion.Report{Pos: geo.Point{X: 100, Y: 500}, Time: 0}
	s.Apply(cqserver.Update{Node: 7, Report: rep})
	if s.shardOf[7] != 0 {
		t.Fatalf("node 7 resident in shard %d, want 0", s.shardOf[7])
	}
	// A fresher report in another band moves residency and cleans the old
	// shard's index.
	s.Apply(cqserver.Update{Node: 7, Report: motion.Report{Pos: geo.Point{X: 900, Y: 500}, Time: 1}})
	if s.shardOf[7] != 3 {
		t.Fatalf("node 7 resident in shard %d, want 3", s.shardOf[7])
	}
	if len(s.shards[0].residents) != 0 || s.shards[0].index.Len() != 0 {
		t.Error("old shard retained the node")
	}
}

func TestStaleArrivalSuperseded(t *testing.T) {
	// Two reports for one node land in different bands: the later arrival
	// must win whatever the band order, which one FIFO gives for free.
	s := testSharded(t, 2, nil)
	early := cqserver.Update{Node: 3, Report: motion.Report{Pos: geo.Point{X: 900, Y: 10}, Time: 0}}
	late := cqserver.Update{Node: 3, Report: motion.Report{Pos: geo.Point{X: 100, Y: 10}, Time: 1}}
	if s.IngestShedOldest(early) || s.IngestShedOldest(late) {
		t.Fatal("shed below capacity")
	}
	s.Drain(-1)
	rep, ok := s.Table().Report(3)
	if !ok || rep.Pos.X != 100 {
		t.Fatalf("table kept report at x=%v, want the later arrival (x=100)", rep.Pos.X)
	}
	if s.shardOf[3] != 0 {
		t.Errorf("node 3 resident in shard %d, want 0", s.shardOf[3])
	}
}

// TestServerLambdaSingleCount audits the λ single-count contract at the
// server: every update funnelled through IngestShedOldest counts exactly
// one arrival in the window the control plane's rate source reports, no
// matter how many sheds it causes or which band it lands in, and sheds
// are never counted as service.
func TestServerLambdaSingleCount(t *testing.T) {
	const b, offers = 8, 200
	s := testSharded(t, 4, func(c *Config) { c.Core.QueueSize = b })
	for i := 0; i < offers; i++ {
		x := float64(i%100) * 10 // spread across bands
		s.IngestShedOldest(cqserver.Update{
			Node:   i % 100,
			Report: motion.Report{Pos: geo.Point{X: x, Y: 500}, Time: float64(i)},
		})
	}
	s.ObserveBusy(1)
	lambda, mu := s.Queue().Rates(1)
	if lambda != offers {
		t.Fatalf("λ = %v, want %v (one arrival per ingested update)", lambda, offers)
	}
	if mu != 0 {
		t.Fatalf("μ = %v, want 0 (sheds are not services)", mu)
	}
	if s.Dropped() != offers-b {
		t.Fatalf("dropped = %d, want %d", s.Dropped(), offers-b)
	}
	if got := s.Dropped() + int64(s.QueueLen()); got != offers {
		t.Fatalf("dropped + queued = %d, want %d", got, offers)
	}
}

func TestEvaluateMigratesDriftingNode(t *testing.T) {
	s := testSharded(t, 4, nil)
	s.RegisterQueries([]geo.Rect{space()})
	// Node starts in shard 1 moving right at 100 units/s.
	s.Apply(cqserver.Update{Node: 0, Report: motion.Report{
		Pos: geo.Point{X: 300, Y: 500}, Vel: geo.Vector{X: 100}, Time: 0,
	}})
	res := s.Evaluate(0)
	if len(res[0]) != 1 || s.shardOf[0] != 1 {
		t.Fatalf("t=0: results %v, shard %d", res[0], s.shardOf[0])
	}
	// By t=4 the dead-reckoned position x=700 is shard 2's band.
	res = s.Evaluate(4)
	if len(res[0]) != 1 || res[0][0] != 0 {
		t.Fatalf("t=4: results %v, want [0]", res[0])
	}
	if s.shardOf[0] != 2 {
		t.Errorf("t=4: node resident in shard %d, want 2", s.shardOf[0])
	}
	if s.shards[1].index.Len() != 0 || s.shards[2].index.Len() != 1 {
		t.Error("index residency did not follow the migration")
	}
}

func TestDebtTriggersCompaction(t *testing.T) {
	s := testSharded(t, 1, func(c *Config) { c.DebtFactor = 0.25 })
	s.RegisterQueries([]geo.Rect{space()})
	for i := 0; i < 40; i++ {
		s.Apply(cqserver.Update{Node: i, Report: motion.Report{
			Pos: geo.Point{X: float64(i*25 + 10), Y: 500}, Vel: geo.Vector{X: 200}, Time: 0,
		}})
	}
	s.Evaluate(0)
	// Inserting 40 nodes left debt 40 > 0.25·40, so the first evaluation
	// already compacted.
	if got := s.shards[0].index.Debt(); got != 0 {
		t.Fatalf("debt after first evaluation = %d, want 0 (compacted)", got)
	}
	// Dead-reckoned drift of 200 units crosses bucket boundaries (buckets
	// are 1000/64 ≈ 15.6 wide), rebuilding debt until the next compaction.
	s.Evaluate(1)
	s.Evaluate(2)
	if got := s.shards[0].index.Debt(); got != 0 {
		t.Fatalf("debt after drifting evaluations = %d, want 0 (threshold crossed)", got)
	}
}
