package shard

import (
	"runtime"
	"testing"

	"lira/internal/cqserver"
	"lira/internal/fmodel"
	"lira/internal/geo"
	"lira/internal/motion"
	"lira/internal/rng"
)

// pinSerial forces GOMAXPROCS=1 so par.ForChunks runs its serial fast
// path: the gates measure the evaluation pipeline's own allocations,
// not goroutine-spawn overhead.
func pinSerial(t *testing.T) {
	t.Helper()
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func allocSharded(t *testing.T, k int) (*Server, []cqserver.Update) {
	t.Helper()
	s, err := New(Config{
		Core: cqserver.Config{
			Space:     space(),
			Nodes:     1500,
			L:         13,
			QueueSize: 4096,
			Curve:     fmodel.Hyperbolic(5, 100, 95),
		},
		Shards: k,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.RegisterQueries([]geo.Rect{
		geo.NewRect(0, 0, 400, 400),
		geo.NewRect(300, 300, 700, 700),
		geo.NewRect(600, 100, 950, 500),
		geo.NewRect(100, 600, 500, 950),
	})
	r := rng.New(42)
	ups := make([]cqserver.Update, 1500)
	for i := range ups {
		ups[i] = cqserver.Update{Node: i, Report: motion.Report{
			Pos:  geo.Point{X: r.Float64() * 1000, Y: r.Float64() * 1000},
			Vel:  geo.Vector{X: r.Float64()*20 - 10, Y: r.Float64()*20 - 10},
			Time: 0,
		}}
	}
	for _, u := range ups {
		s.Apply(u)
	}
	return s, ups
}

// Steady-state ingest + drain across K=4 shards must not allocate: the
// queue, motion table, residency maps, and SoA mirrors are all
// fixed-size or amortized to their high-water capacity.
func TestAllocsIngestDrain(t *testing.T) {
	pinSerial(t)
	s, ups := allocSharded(t, 4)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		u := ups[i%len(ups)]
		i++
		if s.IngestShedOldest(u) {
			t.Fatal("ring full")
		}
		if s.Drain(-1) != 1 {
			t.Fatal("drain miscount")
		}
	})
	if allocs != 0 {
		t.Errorf("IngestShedOldest+Drain allocates %.1f/op in steady state, want 0", allocs)
	}
}

func TestAllocsIngestShedOldest(t *testing.T) {
	pinSerial(t)
	s, ups := allocSharded(t, 4)
	i := 0
	allocs := testing.AllocsPerRun(8192, func() {
		u := ups[i%len(ups)]
		i++
		s.IngestShedOldest(u) // overflows the queue: the shed path is exercised too
	})
	if allocs != 0 {
		t.Errorf("IngestShedOldest allocates %.1f/op in steady state, want 0", allocs)
	}
}

// The columnar vectored admission must be allocation-free on the sharded
// server too, overflow sheds included.
func TestAllocsIngestShedOldestColumns(t *testing.T) {
	pinSerial(t)
	s, ups := allocSharded(t, 4)
	const batch = 64
	nodes := make([]uint32, batch)
	xs, ys := make([]float64, batch), make([]float64, batch)
	vxs, vys := make([]float64, batch), make([]float64, batch)
	times := make([]float64, batch)
	for j := 0; j < batch; j++ {
		u := ups[j%len(ups)]
		nodes[j] = uint32(u.Node)
		xs[j], ys[j] = u.Report.Pos.X, u.Report.Pos.Y
		vxs[j], vys[j] = u.Report.Vel.X, u.Report.Vel.Y
		times[j] = u.Report.Time
	}
	allocs := testing.AllocsPerRun(256, func() { // overflows the queue: the shed path runs too
		s.IngestShedOldestColumns(nodes, xs, ys, vxs, vys, times)
	})
	if allocs != 0 {
		t.Errorf("IngestShedOldestColumns allocates %.1f/batch in steady state, want 0", allocs)
	}
}

func TestAllocsApply(t *testing.T) {
	pinSerial(t)
	s, ups := allocSharded(t, 4)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		u := ups[i%len(ups)]
		i++
		s.Apply(u)
	})
	if allocs != 0 {
		t.Errorf("Apply allocates %.1f/op in steady state, want 0", allocs)
	}
}

// The four-phase sharded Evaluate — SoA predict sweep, migrations,
// debt-compacted fragment scans, shard-order merge — may allocate at
// most once per call in steady state. The warmup drifts the population
// (bucket crossings, migrations, compactions); the measured rounds then
// evaluate at a fixed instant so the gate captures the machinery's
// per-call cost, not the amortized bucket growth an incremental index
// pays when the population enters cells it has never occupied (that
// growth is a one-time high-water cost per bucket, by design).
func TestAllocsEvaluate(t *testing.T) {
	pinSerial(t)
	for _, k := range []int{1, 4} {
		s, _ := allocSharded(t, k)
		now := 1.0
		for i := 0; i < 5; i++ { // warm buffers, indexes, and mirrors
			s.Evaluate(now)
			now += 0.2
		}
		allocs := testing.AllocsPerRun(100, func() {
			s.Evaluate(now)
		})
		if allocs > 1 {
			t.Errorf("K=%d: Evaluate allocates %.1f/op in steady state, want ≤1", k, allocs)
		}
	}
}

// EvaluateQuery — the registration path — walks the shared motion table
// into the query's pooled result slot: nothing allocates once the slot
// has grown.
func TestAllocsEvaluateQuery(t *testing.T) {
	pinSerial(t)
	for _, k := range []int{1, 4} {
		s, _ := allocSharded(t, k)
		const now = 1.0
		for qi := range s.Queries() {
			s.EvaluateQuery(now, qi)
		}
		qi := 0
		allocs := testing.AllocsPerRun(100, func() {
			s.EvaluateQuery(now, qi%len(s.Queries()))
			qi++
		})
		if allocs != 0 {
			t.Errorf("K=%d: EvaluateQuery allocates %.1f/op in steady state, want 0", k, allocs)
		}
	}
}

// ObserveSelf builds each shard's sample in that shard's pooled buffers:
// nothing allocates once they have grown.
func TestAllocsObserveSelf(t *testing.T) {
	pinSerial(t)
	for _, k := range []int{1, 4} {
		s, _ := allocSharded(t, k)
		now := 1.0
		s.ObserveSelf(now) // grow the per-shard sample buffers
		allocs := testing.AllocsPerRun(100, func() {
			now += 0.001
			s.ObserveSelf(now)
		})
		if allocs != 0 {
			t.Errorf("K=%d: ObserveSelf allocates %.1f/op in steady state, want 0", k, allocs)
		}
	}
}

// Under continuous population drift the scan and merge phases stay
// allocation-free; only index bucket growth and compaction trims (both
// amortized structural costs) may allocate. This ceiling catches a
// regression that reintroduces per-tick garbage — a closure, a fresh
// result slice — which would push the drifting cost far above it.
func TestAllocsEvaluateDriftCeiling(t *testing.T) {
	pinSerial(t)
	s, _ := allocSharded(t, 4)
	now := 1.0
	for i := 0; i < 10; i++ {
		s.Evaluate(now)
		now += 0.2
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.Evaluate(now)
		now += 0.2
	})
	if allocs > 200 {
		t.Errorf("Evaluate allocates %.1f/op under drift, ceiling 200 (structural growth only)", allocs)
	}
}
