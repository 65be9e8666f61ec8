package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"lira/internal/metrics"
)

func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	// Values exactly on an edge must land in the bucket whose inclusive
	// upper bound they equal (Prometheus le semantics).
	for _, v := range []float64{1, 2, 4} {
		h.Observe(v)
	}
	h.Observe(0.5) // below first edge → bucket 0
	h.Observe(3)   // between 2 and 4 → bucket 2
	h.Observe(9)   // above all edges → +Inf bucket

	s := h.Snapshot()
	want := []int64{2, 1, 2, 1} // (≤1): 0.5,1  (≤2): 2  (≤4): 3,4  (+Inf): 9
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 6 {
		t.Errorf("count = %d, want 6", s.Count)
	}
	if got := h.Sum(); got != 0.5+1+2+3+4+9 {
		t.Errorf("sum = %v", got)
	}
}

// A scraper polls /metrics several times a second: once the pooled
// buffer has grown to the document's size a render allocates nothing.
// (The bound is not 0 because -race makes sync.Pool drop a quarter of
// its Puts; formatting line by line through fmt cost 90 here.)
func TestWritePrometheusSteadyStateAllocs(t *testing.T) {
	r := NewRegistry()
	r.Counter("lira_a_total").Add(12345)
	r.Gauge("lira_b").Set(0.125)
	r.GaugeFunc("lira_c", func() float64 { return 3 })
	r.Histogram("lira_d_seconds", nil).Observe(0.02)
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = r.WritePrometheus(io.Discard) }); allocs > 8 {
		t.Errorf("WritePrometheus allocates %.1f/op in steady state, want ~0", allocs)
	}
}

func TestHistogramCumulativeExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lira_test_seconds", []float64{1, 2})
	h.Observe(1) // on edge → le="1"
	h.Observe(2)
	h.Observe(5)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE lira_test_seconds histogram",
		`lira_test_seconds_bucket{le="1"} 1`,
		`lira_test_seconds_bucket{le="2"} 2`,
		`lira_test_seconds_bucket{le="+Inf"} 3`,
		"lira_test_seconds_sum 8",
		"lira_test_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSeriesWraparound(t *testing.T) {
	s := newSeries(4)
	for i := 0; i < 10; i++ {
		s.Append(float64(i), float64(i*i))
	}
	if s.Len() != 4 || s.Cap() != 4 {
		t.Fatalf("len=%d cap=%d, want 4/4", s.Len(), s.Cap())
	}
	pts := s.Points()
	for i, p := range pts {
		wantTick := float64(6 + i) // oldest surviving sample is tick 6
		if p.Tick != wantTick || p.Value != wantTick*wantTick {
			t.Errorf("point %d = %+v, want tick %v", i, p, wantTick)
		}
	}
}

func TestRegistryConcurrentWrites(t *testing.T) {
	r := NewRegistry()
	const goroutines, perG = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c")
			ga := r.Gauge("g")
			h := r.Histogram("h", []float64{0.5})
			se := r.Series("s", 64)
			for i := 0; i < perG; i++ {
				c.Inc()
				ga.Add(1)
				h.Observe(0.25)
				se.Append(float64(i), 1)
				_ = r.Snapshot() // concurrent readers must not race writers
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := r.Gauge("g").Value(); got != goroutines*perG {
		t.Errorf("gauge = %v, want %d", got, goroutines*perG)
	}
	if got := r.Histogram("h", nil).Count(); got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

func TestRegistryKindCollisionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on cross-kind name reuse")
		}
	}()
	r := NewRegistry()
	r.Counter("x")
	r.Gauge("x")
}

func TestJournalRingAndTail(t *testing.T) {
	j := NewJournal(3)
	for i := 0; i < 5; i++ {
		j.Append(Record{Kind: KindThrotloop, Tick: float64(i),
			Throtloop: &ThrotloopEvent{Rho: float64(i)}})
	}
	if j.Len() != 3 || j.Seq() != 5 {
		t.Fatalf("len=%d seq=%d, want 3/5", j.Len(), j.Seq())
	}
	tail := j.Tail(2)
	if len(tail) != 2 || tail[0].Seq != 4 || tail[1].Seq != 5 {
		t.Fatalf("tail = %+v", tail)
	}
	if got := j.CountKind(KindThrotloop); got != 3 {
		t.Errorf("CountKind = %d, want 3", got)
	}
}

func TestJournalSinkJSONL(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(2)
	j.SetSink(&buf)
	j.Append(Record{Kind: KindAssign, Assign: &AssignEvent{
		Z:      0.5,
		Deltas: []float64{1, 2},
		Gains:  []float64{3, math.Inf(1)}, // query-free region gain
	}})
	j.Append(Record{Kind: KindNet, Net: &NetEvent{Event: "disconnect", Node: -1}})
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d: %q", len(lines), buf.String())
	}
	var rec Record
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if rec.Assign == nil || rec.Assign.Gains[1] != math.MaxFloat64 {
		t.Errorf("non-finite gain not capped: %+v", rec.Assign)
	}
	if !strings.Contains(lines[1], `"disconnect"`) {
		t.Errorf("line 1 = %s", lines[1])
	}
}

func TestHubSnapshotBridgesNetCounters(t *testing.T) {
	h := NewHub(8)
	tick := 0.0
	h.SetClock(func() float64 { return tick })
	var nc metrics.NetCounters
	h.BindNetCounters(&nc)
	nc.Disconnects.Add(2)
	nc.ShedFrames.Add(7)
	h.Registry.Counter("lira_updates_total").Add(41)
	tick = 12.5
	h.Record(Record{Kind: KindThrotloop, Throtloop: &ThrotloopEvent{Rho: 1.2, Z: 0.8, B: 100}})

	s := h.Snapshot(0)
	if s.Tick != 12.5 {
		t.Errorf("tick = %v", s.Tick)
	}
	if s.Net == nil || s.Net.Disconnects != 2 || s.Net.ShedFrames != 7 {
		t.Errorf("net = %+v", s.Net)
	}
	if s.Registry.Counters["lira_updates_total"] != 41 {
		t.Errorf("registry counters = %+v", s.Registry.Counters)
	}
	if len(s.Journal) != 1 || s.Journal[0].Tick != 12.5 {
		t.Errorf("journal = %+v", s.Journal)
	}

	var buf bytes.Buffer
	if err := h.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"lira_net_disconnects_total 2",
		"lira_net_shed_frames_total 7",
		"lira_updates_total 41",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, buf.String())
		}
	}
}

func TestNilHubIsInert(t *testing.T) {
	var h *Hub
	h.SetClock(func() float64 { return 1 })
	h.EnsureClock(func() float64 { return 1 })
	h.BindNetCounters(nil)
	h.Record(Record{Kind: KindNet})
	if h.Now() != 0 {
		t.Error("nil hub Now != 0")
	}
	if s := h.Snapshot(0); s.Net != nil || len(s.Journal) != 0 {
		t.Errorf("nil hub snapshot = %+v", s)
	}
	if err := h.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Error(err)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	h := NewHub(8)
	h.Registry.Counter("lira_updates_total").Add(3)
	h.Record(Record{Kind: KindThrotloop, Throtloop: &ThrotloopEvent{Rho: 2, Z: 0.5, B: 10}})
	mux := NewMux(h, func() any {
		return map[string]any{"z": 0.5, "deltas": []float64{5, 10}}
	}, true)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "lira_updates_total 3") {
		t.Errorf("/metrics: %d %q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/lira?tail=1", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/lira: %d", rec.Code)
	}
	var payload map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatalf("debug payload not JSON: %v", err)
	}
	state, _ := payload["state"].(map[string]any)
	if state == nil || state["z"] != 0.5 {
		t.Errorf("state = %+v", payload["state"])
	}
	if _, ok := payload["journal"]; !ok {
		t.Errorf("payload missing journal: %v", payload)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rec.Code != 200 {
		t.Errorf("/debug/pprof/cmdline: %d", rec.Code)
	}
}

// TestHistogramQuantile pins the boundary behavior of the bucketed
// quantile estimate: exact edge ranks, the empty histogram, q clamping,
// and the +Inf bucket reporting the largest finite bound.
func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	if got := h.Quantile(0.99); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}

	// 4 observations, one per bucket (incl. +Inf): cumulative counts are
	// 1, 2, 3, 4 — every rank boundary is exact.
	for _, v := range []float64{0.5, 2, 3, 9} {
		h.Observe(v)
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.25, 1},  // rank 1 → first bucket edge
		{0.5, 2},   // rank 2 → second edge (observation exactly on it)
		{0.75, 4},  // rank 3 → third edge
		{0.76, 4},  // rank 4 lands in +Inf → largest finite bound
		{1.0, 4},   // rank n in +Inf → largest finite bound
		{0.0, 1},   // q below 1/n clamps to rank 1
		{-1, 1},    // negative q clamps to rank 1
		{2, 4},     // q above 1 clamps to rank n
		{0.249, 1}, // just below a boundary stays in the lower bucket
		{0.251, 2}, // just above it moves up
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}

	// No finite bounds: always 0, regardless of observations.
	inf := newHistogram(nil)
	inf.Observe(5)
	if got := inf.Quantile(0.5); got != 0 {
		t.Errorf("boundless Quantile = %v, want 0", got)
	}
}
