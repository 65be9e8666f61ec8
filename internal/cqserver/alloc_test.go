package cqserver

import (
	"runtime"
	"testing"

	"lira/internal/fmodel"
	"lira/internal/geo"
	"lira/internal/motion"
	"lira/internal/rng"
)

// pinSerial forces GOMAXPROCS=1 for the test so par.ForChunks takes its
// serial fast path: the allocation gates measure the hot path's own
// behavior, not the goroutine-spawn cost of the parallel decomposition
// (which is amortized away at scale and absent on a loaded single core).
func pinSerial(t *testing.T) {
	t.Helper()
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// allocServer is a server sized like a realistic deployment slice, with
// queries registered and a fully warmed motion table.
func allocServer(t *testing.T) (*Server, []Update) {
	t.Helper()
	s, err := New(Config{
		Space:     space(),
		Nodes:     1500,
		L:         13,
		QueueSize: 4096,
		Curve:     fmodel.Hyperbolic(5, 100, 95),
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
	ups := make([]Update, 1500)
	for i := range ups {
		ups[i] = Update{Node: i, Report: motion.Report{
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

// Steady-state ingest + drain must not allocate: the queue ring, motion
// table, and history-free apply path are all fixed-size.
func TestAllocsIngestDrain(t *testing.T) {
	pinSerial(t)
	s, ups := allocServer(t)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		u := ups[i%len(ups)]
		i++
		if s.IngestShedOldest(u) {
			t.Fatal("queue full")
		}
		if s.Drain(-1) != 1 {
			t.Fatal("drain miscount")
		}
	})
	if allocs != 0 {
		t.Errorf("IngestShedOldest+Drain allocates %.1f/op in steady state, want 0", allocs)
	}
}

// The shed-oldest admission path is equally allocation-free, including
// when the queue overflows and sheds.
func TestAllocsIngestShedOldest(t *testing.T) {
	pinSerial(t)
	s, ups := allocServer(t)
	i := 0
	allocs := testing.AllocsPerRun(8192, func() {
		u := ups[i%len(ups)]
		i++
		s.IngestShedOldest(u) // at 8192 runs the 4096-queue overflows: sheds too
	})
	if allocs != 0 {
		t.Errorf("IngestShedOldest allocates %.1f/op in steady state, want 0", allocs)
	}
}

// The columnar vectored admission must be allocation-free too — it is
// the path every decoded wire batch takes, overflow sheds included.
func TestAllocsIngestShedOldestColumns(t *testing.T) {
	pinSerial(t)
	s, ups := allocServer(t)
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
	allocs := testing.AllocsPerRun(256, func() { // 256×64 overflows the 4096-queue: sheds too
		s.IngestShedOldestColumns(nodes, xs, ys, vxs, vys, times)
	})
	if allocs != 0 {
		t.Errorf("IngestShedOldestColumns allocates %.1f/batch in steady state, want 0", allocs)
	}
}

func TestAllocsApply(t *testing.T) {
	pinSerial(t)
	s, ups := allocServer(t)
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

// Evaluate may allocate at most once per call in steady state (the gate
// tolerates a stray runtime allocation); after the first rounds have
// grown the result buffers and index to their working size, the predict
// sweep, rebuild, scans, and sorts all run in pooled memory.
func TestAllocsEvaluate(t *testing.T) {
	pinSerial(t)
	s, _ := allocServer(t)
	now := 1.0
	for i := 0; i < 3; i++ { // warm result buffers and index
		s.Evaluate(now)
		now += 0.5
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.Evaluate(now)
		now += 0.5
	})
	if allocs > 1 {
		t.Errorf("Evaluate allocates %.1f/op in steady state, want ≤1", allocs)
	}
}
