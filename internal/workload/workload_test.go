package workload

import (
	"testing"

	"lira/internal/geo"
	"lira/internal/rng"
)

func space() geo.Rect { return geo.Rect{MinX: 0, MinY: 0, MaxX: 10000, MaxY: 10000} }

// clusteredNodes puts 90% of nodes in the SW 2000×2000 corner.
func clusteredNodes(n int) []geo.Point {
	r := rng.New(13)
	pts := make([]geo.Point, n)
	for i := range pts {
		if i < n*9/10 {
			pts[i] = geo.Point{X: r.Range(0, 2000), Y: r.Range(0, 2000)}
		} else {
			pts[i] = geo.Point{X: r.Range(0, 10000), Y: r.Range(0, 10000)}
		}
	}
	return pts
}

func swShare(qs []geo.Rect) float64 {
	in := 0
	for _, q := range qs {
		c := q.Center()
		if c.X < 2500 && c.Y < 2500 {
			in++
		}
	}
	return float64(in) / float64(len(qs))
}

func TestValidation(t *testing.T) {
	if _, err := GenerateQueries(space(), nil, QueryConfig{Count: -1, SideLength: 100}); err == nil {
		t.Error("negative count should error")
	}
	if _, err := GenerateQueries(space(), nil, QueryConfig{Count: 5, SideLength: 0}); err == nil {
		t.Error("zero side should error")
	}
}

func TestCountAndSides(t *testing.T) {
	qs, err := GenerateQueries(space(), clusteredNodes(1000), QueryConfig{
		Count: 200, SideLength: 1000, Distribution: Proportional, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 200 {
		t.Fatalf("got %d queries", len(qs))
	}
	for _, q := range qs {
		if q.Width() < 500-1e-9 || q.Width() > 1000+1e-9 {
			t.Errorf("side %v outside [w/2, w]", q.Width())
		}
		if diff := q.Width() - q.Height(); diff > 1e-9 || diff < -1e-9 {
			t.Errorf("queries must be square: %v", q)
		}
		if q.Intersect(space()).Empty() {
			t.Errorf("query %v misses the space entirely", q)
		}
	}
}

func TestProportionalFollowsNodes(t *testing.T) {
	qs, err := GenerateQueries(space(), clusteredNodes(1000), QueryConfig{
		Count: 400, SideLength: 500, Distribution: Proportional, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if share := swShare(qs); share < 0.7 {
		t.Errorf("proportional SW share = %v, want ≳0.9", share)
	}
}

func TestInverseAvoidsNodes(t *testing.T) {
	qs, err := GenerateQueries(space(), clusteredNodes(1000), QueryConfig{
		Count: 400, SideLength: 500, Distribution: Inverse, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The SW corner is ~6% of the area; inverse placement should give it
	// no more than that.
	if share := swShare(qs); share > 0.1 {
		t.Errorf("inverse SW share = %v, want ≲0.06", share)
	}
}

func TestRandomIsUniform(t *testing.T) {
	qs, err := GenerateQueries(space(), clusteredNodes(1000), QueryConfig{
		Count: 1000, SideLength: 500, Distribution: Random, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// SW 2500×2500 corner is 6.25% of the area.
	if share := swShare(qs); share < 0.02 || share > 0.12 {
		t.Errorf("random SW share = %v, want ≈0.0625", share)
	}
}

func TestEmptyNodesFallsBackToRandom(t *testing.T) {
	for _, d := range []Distribution{Proportional, Inverse, Random} {
		qs, err := GenerateQueries(space(), nil, QueryConfig{
			Count: 50, SideLength: 500, Distribution: d, Seed: 5,
		})
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if len(qs) != 50 {
			t.Errorf("%v: got %d queries", d, len(qs))
		}
	}
}

func TestDeterministic(t *testing.T) {
	nodes := clusteredNodes(500)
	cfg := QueryConfig{Count: 100, SideLength: 800, Distribution: Proportional, Seed: 9}
	a, _ := GenerateQueries(space(), nodes, cfg)
	b, _ := GenerateQueries(space(), nodes, cfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("query %d differs between identical configs", i)
		}
	}
}

func TestDistributionString(t *testing.T) {
	if Proportional.String() != "proportional" || Inverse.String() != "inverse" || Random.String() != "random" {
		t.Error("Distribution.String broken")
	}
	if Distribution(99).String() == "" {
		t.Error("unknown distribution should still print")
	}
}

// TestFlashCrowdDeterministic: two generators with equal configs emit
// byte-identical report sequences — the reproducibility contract the
// admission chaos runs and the capacity planner lean on.
func TestFlashCrowdDeterministic(t *testing.T) {
	space := geo.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	cfg := FlashCrowdConfig{Nodes: 50, Seed: 7}
	type report struct {
		node int
		pos  geo.Point
		vel  geo.Vector
	}
	run := func() []report {
		f, err := NewFlashCrowd(space, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out []report
		for tick := 0; tick < f.Ticks(); tick++ {
			f.Emit(float64(tick), func(n int, p geo.Point, v geo.Vector) {
				out = append(out, report{n, p, v})
			})
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs emitted %d vs %d reports", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("report %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestFlashCrowdEnvelope: the rate profile is the documented piecewise
// shape — base, linear ramp, hold at peak, linear decay, base — and the
// emitted positions stay inside the space.
func TestFlashCrowdEnvelope(t *testing.T) {
	space := geo.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	f, err := NewFlashCrowd(space, FlashCrowdConfig{
		Nodes: 100, BaseRate: 10, PeakRate: 40,
		RampTicks: 10, HoldTicks: 5, DecayTicks: 20, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Rate(0); got != 10 {
		t.Errorf("Rate(0) = %v, want base 10", got)
	}
	if got := f.Rate(5); got != 25 {
		t.Errorf("Rate(5) = %v, want mid-ramp 25", got)
	}
	for _, tk := range []int{10, 12, 15} {
		if got := f.Rate(tk); got != 40 {
			t.Errorf("Rate(%d) = %v, want peak 40", tk, got)
		}
	}
	if got := f.Rate(25); got != 25 {
		t.Errorf("Rate(25) = %v, want mid-decay 25", got)
	}
	if got := f.Rate(100); got != 10 {
		t.Errorf("Rate(100) = %v, want base after decay", got)
	}
	// Monotone ramp, monotone decay.
	for tk := 1; tk <= 10; tk++ {
		if f.Rate(tk) < f.Rate(tk-1) {
			t.Errorf("ramp not monotone at tick %d", tk)
		}
	}
	for tk := 16; tk <= 35; tk++ {
		if f.Rate(tk) > f.Rate(tk-1) {
			t.Errorf("decay not monotone at tick %d", tk)
		}
	}
	if _, err := NewFlashCrowd(space, FlashCrowdConfig{}); err == nil {
		t.Error("NewFlashCrowd accepted a zero population")
	}
	for tick := 0; tick < f.Ticks(); tick++ {
		f.Emit(float64(tick), func(n int, p geo.Point, v geo.Vector) {
			if n < 0 || n >= 100 {
				t.Fatalf("tick %d: node %d out of range", tick, n)
			}
			if !space.ContainsClosed(p) {
				t.Fatalf("tick %d: position %v escapes the space", tick, p)
			}
		})
	}
}
