// Package telemetry is the observability layer of the LIRA reproduction:
// a lock-cheap metric registry (atomic counters, gauges, fixed-bucket
// histograms, and ring-buffered period series), a structured decision
// journal recording every control-loop action, and HTTP handlers exposing
// both (Prometheus text on /metrics, a JSON snapshot on /debug/lira).
//
// Determinism contract: telemetry is strictly passive. Instrumented code
// paths produce byte-identical simulator output whether a Hub is attached
// or not, and the decision journal of a fixed-seed simulation is itself
// reproducible — journal records carry simulation tick time supplied by
// the Hub's clock, never the wall clock. Wall-clock durations appear only
// in latency histograms, which exist outside the simulation state.
//
// Hot-path cost: every metric write is one atomic operation (histograms:
// a binary search over ≤ ~20 bounds plus two atomics). Registration
// (get-or-create by name) takes a mutex and is meant for setup time;
// instrumented components look their metrics up once and keep the
// pointers.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are a caller bug; counters only grow).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically settable float64.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram with Prometheus cumulative-bucket
// semantics: an observation v lands in the first bucket whose upper bound
// satisfies v <= bound (bounds are inclusive upper edges), and values
// above every bound land in the implicit +Inf bucket.
type Histogram struct {
	bounds  []float64
	le      []string       // exposition suffix per bound: `_bucket{le="<bound>"}`
	buckets []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64
}

// newHistogram returns a histogram over the given ascending upper bounds.
func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	le := make([]string, len(b))
	for i, v := range b {
		le[i] = `_bucket{le="` + escapeLabel(strconv.FormatFloat(v, 'g', -1, 64)) + `"}`
	}
	return &Histogram{bounds: b, le: le, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v (inclusive upper edge).
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Bounds returns the bucket upper bounds (without the implicit +Inf).
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile returns the q-quantile of the observed values as a bucket
// upper edge: the smallest bound whose cumulative count reaches ⌈q·n⌉.
// The estimate is boundary-exact — an observation equal to a bucket bound
// lands in that bucket (inclusive upper edges), so its own bound is
// reported, never the next one. q is clamped to (0, 1]; rank clamps keep
// q ≤ 0 at the first populated bucket and q ≥ 1 at the last. Mass in the
// implicit +Inf bucket reports the largest finite bound (+Inf would
// poison threshold comparisons); 0 is returned before the first
// observation or when the histogram has no finite bounds. Like Snapshot,
// the read is not atomic across buckets — concurrent observers can skew
// the estimate by at most the in-flight observations.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.count.Load()
	if n == 0 || len(h.bounds) == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.bounds[len(h.bounds)-1]
		}
	}
	// Buckets were mid-update (count ahead of bucket increments): report
	// the largest populated edge.
	return h.bounds[len(h.bounds)-1]
}

// Mean returns Sum/Count, or 0 before the first observation.
func (h *Histogram) Mean() float64 {
	if n := h.Count(); n > 0 {
		return h.Sum() / float64(n)
	}
	return 0
}

// HistogramSnapshot is a plain-value copy of a histogram.
type HistogramSnapshot struct {
	// Bounds are the inclusive bucket upper edges; Counts has one more
	// entry than Bounds (the +Inf bucket) and is per-bucket, not
	// cumulative.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.buckets)),
		Count:  h.count.Load(),
		Sum:    h.Sum(),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}

// LatencyBuckets returns the default latency bucket bounds in seconds:
// 10 µs to 2.5 s on a 1-2.5-5 ladder, suiting both the sub-millisecond
// Evaluate hot path and multi-millisecond adaptation cycles.
func LatencyBuckets() []float64 {
	return []float64{
		10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
		1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3,
		0.1, 0.25, 0.5, 1, 2.5,
	}
}

// Point is one sample of a period series.
type Point struct {
	Tick  float64 `json:"tick"`
	Value float64 `json:"value"`
}

// Series is a bounded ring-buffered time series, sampled once per shedding
// period (or any other caller-defined cadence). When full, appending
// overwrites the oldest point. Ticks come from the caller, so a series
// recorded under a fixed seed is deterministic.
type Series struct {
	mu    sync.Mutex
	buf   []Point
	start int
	size  int
}

// newSeries returns a series retaining the last capacity points.
func newSeries(capacity int) *Series {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Series{buf: make([]Point, capacity)}
}

// Append records one sample.
func (s *Series) Append(tick, value float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.size < len(s.buf) {
		s.buf[(s.start+s.size)%len(s.buf)] = Point{tick, value}
		s.size++
		return
	}
	s.buf[s.start] = Point{tick, value}
	s.start = (s.start + 1) % len(s.buf)
}

// Len returns the number of retained points.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Cap returns the ring capacity.
func (s *Series) Cap() int { return len(s.buf) }

// Points returns the retained points, oldest first.
func (s *Series) Points() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Point, s.size)
	for i := 0; i < s.size; i++ {
		out[i] = s.buf[(s.start+i)%len(s.buf)]
	}
	return out
}

// Registry is a named metric registry. Get-or-create accessors are
// goroutine-safe; each returns the same instance for the same name, so
// components may share metrics by name. Metric kinds share one namespace:
// requesting an existing name as a different kind panics (a wiring bug).
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() float64
	hists      map[string]*Histogram
	series     map[string]*Series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		gaugeFuncs: map[string]func() float64{},
		hists:      map[string]*Histogram{},
		series:     map[string]*Series{},
	}
}

func (r *Registry) assertUnique(name, kind string) {
	if _, ok := r.counters[name]; ok && kind != "counter" {
		panic(fmt.Sprintf("telemetry: %q already registered as counter", name))
	}
	if _, ok := r.gauges[name]; ok && kind != "gauge" {
		panic(fmt.Sprintf("telemetry: %q already registered as gauge", name))
	}
	if _, ok := r.gaugeFuncs[name]; ok && kind != "gaugefunc" {
		panic(fmt.Sprintf("telemetry: %q already registered as gauge func", name))
	}
	if _, ok := r.hists[name]; ok && kind != "histogram" {
		panic(fmt.Sprintf("telemetry: %q already registered as histogram", name))
	}
	if _, ok := r.series[name]; ok && kind != "series" {
		panic(fmt.Sprintf("telemetry: %q already registered as series", name))
	}
}

// Counter returns the counter registered under name, creating it if new.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.assertUnique(name, "counter")
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it if new.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.assertUnique(name, "gauge")
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// GaugeFunc registers fn to be evaluated at scrape/snapshot time under
// name, replacing any previous func of that name. fn must be safe to call
// from the scraping goroutine.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.gaugeFuncs[name]; !ok {
		r.assertUnique(name, "gaugefunc")
	}
	r.gaugeFuncs[name] = fn
}

// Histogram returns the histogram registered under name, creating it with
// the given bounds if new (bounds are ignored on subsequent calls; nil
// selects LatencyBuckets).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.assertUnique(name, "histogram")
	if bounds == nil {
		bounds = LatencyBuckets()
	}
	h := newHistogram(bounds)
	r.hists[name] = h
	return h
}

// Series returns the period series registered under name, creating it
// with the given capacity if new (capacity is ignored on subsequent
// calls; <= 0 selects 1024).
func (r *Registry) Series(name string, capacity int) *Series {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[name]; ok {
		return s
	}
	r.assertUnique(name, "series")
	s := newSeries(capacity)
	r.series[name] = s
	return s
}

// RegistrySnapshot is a plain-value copy of every registered metric,
// gathered in a single pass (see Hub.Snapshot for the coherence
// guarantee across the registry and the net-layer counters).
type RegistrySnapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Series     map[string][]Point           `json:"series,omitempty"`
}

// Snapshot copies every metric's current value in one pass over the
// registry. Counters and gauges are read with single atomic loads, so no
// individual value is ever torn; gauge funcs are evaluated inline.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := RegistrySnapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)+len(r.gaugeFuncs)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
		Series:     make(map[string][]Point, len(r.series)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, fn := range r.gaugeFuncs {
		s.Gauges[name] = fn()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	for name, sr := range r.series {
		s.Series[name] = sr.Points()
	}
	return s
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). Series are not exported — they are simulation
// artifacts reachable through Snapshot and /debug/lira — and histograms
// follow the cumulative _bucket/_sum/_count convention. The document is
// built append-style in a pooled buffer and written once, so a scraper
// polling several times a second leaves no per-line garbage behind.
func (r *Registry) WritePrometheus(w io.Writer) error {
	e := expoPool.Get().(*expoBuf)
	defer expoPool.Put(e)
	e.b = e.b[:0]
	r.render(e)
	_, err := w.Write(e.b)
	return err
}

// expoBuf is the working memory of one exposition render.
type expoBuf struct {
	b     []byte
	names []string
}

var expoPool = sync.Pool{New: func() any { return new(expoBuf) }}

func (e *expoBuf) family(name, kind string) {
	e.b = append(append(append(append(append(e.b, "# TYPE "...), name...), ' '), kind...), '\n')
}

// int and float append one sample line: "name+suffix value\n".
func (e *expoBuf) int(name, suffix string, v int64) {
	e.b = append(strconv.AppendInt(append(append(append(e.b, name...), suffix...), ' '), v, 10), '\n')
}

func (e *expoBuf) float(name, suffix string, v float64) {
	e.b = append(strconv.AppendFloat(append(append(append(e.b, name...), suffix...), ' '), v, 'g', -1, 64), '\n')
}

func appendKeys[V any](dst []string, m map[string]V) []string {
	for n := range m {
		dst = append(dst, n)
	}
	return dst
}

func (r *Registry) render(e *expoBuf) {
	r.mu.RLock()
	defer r.mu.RUnlock()

	e.names = appendKeys(e.names[:0], r.counters)
	sort.Strings(e.names)
	for _, n := range e.names {
		e.family(n, "counter")
		e.int(n, "", r.counters[n].Value())
	}
	e.names = appendKeys(appendKeys(e.names[:0], r.gauges), r.gaugeFuncs)
	sort.Strings(e.names)
	for _, n := range e.names {
		var v float64
		if g, ok := r.gauges[n]; ok {
			v = g.Value()
		} else {
			v = r.gaugeFuncs[n]()
		}
		e.family(n, "gauge")
		e.float(n, "", v)
	}
	e.names = appendKeys(e.names[:0], r.hists)
	sort.Strings(e.names)
	for _, n := range e.names {
		h := r.hists[n]
		count, sum := h.count.Load(), h.Sum()
		e.family(n, "histogram")
		cum := int64(0)
		for i, le := range h.le {
			cum += h.buckets[i].Load()
			e.int(n, le, cum)
		}
		e.int(n, `_bucket{le="+Inf"}`, count)
		e.float(n, "_sum", sum)
		e.int(n, "_count", count)
	}
}

// escapeLabel escapes a Prometheus label value per the text exposition
// format: backslash, double-quote, and newline must be backslash-escaped
// (exposition-format spec §"Comments, help text, and type information").
// Today's only label values are formatted floats, which never contain
// those bytes, but every label write goes through here so a future
// label (an SLO name, a shard tag) cannot corrupt the exposition.
func escapeLabel(s string) string {
	needs := false
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == '\\' || c == '"' || c == '\n' {
			needs = true
			break
		}
	}
	if !needs {
		return s
	}
	buf := make([]byte, 0, len(s)+4)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			buf = append(buf, '\\', '\\')
		case '"':
			buf = append(buf, '\\', '"')
		case '\n':
			buf = append(buf, '\\', 'n')
		default:
			buf = append(buf, c)
		}
	}
	return string(buf)
}
