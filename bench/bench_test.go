package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"lira/internal/cqindex"
	"lira/internal/geo"
	"lira/internal/motion"
	"lira/internal/rng"
)

func TestPickPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {40, 75}, {100, 90}, {200, 95}, {500, 98}, {999, 98}, {1000, 99}, {100000, 99}} {
		if got := pickPercentile(c.n); got != c.want {
			t.Errorf("pickPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := tailPercentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := tailPercentile(xs[:100], 99); got != 90 { // falls back to p90
		t.Errorf("p99 of 100 samples = %v, want the p90 (90)", got)
	}
}

func TestProbeScheduleDeterministicAndDephased(t *testing.T) {
	a := probeSchedule(7, 100, 30*time.Second)
	if !reflect.DeepEqual(a, probeSchedule(7, 100, 30*time.Second)) {
		t.Fatal("same seed gave a different schedule")
	}
	if reflect.DeepEqual(a, probeSchedule(8, 100, 30*time.Second)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != 3000 {
		t.Fatalf("%d flips, want 3000", len(a))
	}
	// Offsets modulo the 100 ms step/tick period must be uniform: a
	// chi-square over ten bins (9 degrees of freedom, 27.9 is p = 0.001).
	var bins [10]float64
	for i, d := range a {
		if i > 0 && d <= a[i-1] {
			t.Fatalf("schedule not increasing at %d", i)
		}
		bins[(d%(100*time.Millisecond))/(10*time.Millisecond)]++
	}
	chi, exp := 0.0, float64(len(a))/10
	for _, b := range bins {
		chi += (b - exp) * (b - exp) / exp
	}
	if chi > 27.9 {
		t.Errorf("flip offsets mod 100 ms are not uniform: chi-square %.1f, bins %v", chi, bins)
	}
}

func TestOracleMatchesLinearIndex(t *testing.T) {
	r := rng.New(3)
	pos := make([]geo.Point, 2000)
	active := make([]bool, len(pos))
	for i := range pos {
		pos[i] = geo.Point{X: r.Range(0, spaceSide), Y: r.Range(0, spaceSide)}
		active[i] = true
	}
	lin := cqindex.NewLinear()
	lin.Rebuild(pos, active)
	for q := 0; q < 50; q++ {
		rect := wireRect(geo.Square(geo.Point{X: r.Range(0, spaceSide), Y: r.Range(0, spaceSide)}, r.Range(100, 3000)))
		var want []uint32
		lin.Query(rect, func(id int) { want = append(want, uint32(id)) })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if got := oracle(rect, pos); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: oracle finds %d members, cqindex.Linear %d", q, len(got), len(want))
		}
	}
}

// A wrong result set must fail verification: this is what makes the
// program exit non-zero when lirad answers a settled query incorrectly.
func TestVerifierRejectsWrongResult(t *testing.T) {
	pos := []geo.Point{{X: 10, Y: 10}, {X: 20, Y: 20}, {X: 500, Y: 500}}
	rects := []geo.Rect{geo.NewRect(0, 0, 100, 100)}
	if err := verifyResults(rects, pos, [][]uint32{{0, 1}}); err != nil {
		t.Fatalf("correct result rejected: %v", err)
	}
	for _, wrong := range [][]uint32{{0}, {0, 2}, {0, 1, 2}, nil} {
		if err := verifyResults(rects, pos, [][]uint32{wrong}); err == nil {
			t.Errorf("wrong result %v accepted", wrong)
		}
	}
	if !errors.Is(invalidf("late"), errInvalid) {
		t.Error("invalidf does not wrap errInvalid")
	}
}

func TestMetricNames(t *testing.T) {
	ok := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !ok.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("bad metric name or unit: %q %q", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("duplicate metric %q", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits are 16 and 128", len(endToEnd), len(perLayer))
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// BENCHMARK.json must list exactly the metrics, workloads and command the
// program implements, and the driver line must print exactly those names.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the program's:\n json %v\n prog %v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program's")
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, program %q", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(bj.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(bj.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", bj.Command, bj.Paths)
	}
	if bj.RunSeconds < 20 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bj.RunSeconds)
	}

	for traced, defs := range [][]metricDef{endToEnd, perLayer} {
		res := &result{Attempted: 1}
		vals := map[string]float64{}
		for _, d := range defs {
			vals[d.Name] = 1.5
		}
		if traced == 0 {
			res.EndToEnd = vals
		} else {
			res.PerLayer = vals
		}
		var line struct {
			Correct   bool                       `json:"correct"`
			Attempted int                        `json:"attempted"`
			Metrics   map[string]json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(captureStdout(t, func() error { return printDriverLine(res) })), &line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Attempted != 1 || len(line.Metrics) != len(defs) {
			t.Errorf("driver line has %d metrics, want %d", len(line.Metrics), len(defs))
		}
		for _, d := range defs {
			if _, ok := line.Metrics[d.Name]; !ok {
				t.Errorf("driver line lacks %s", d.Name)
			}
		}
	}
	if err := printDriverLine(&result{EndToEnd: map[string]float64{}}); err == nil {
		t.Error("a result without metric values printed a driver line")
	}
}

func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	ferr := fn()
	os.Stdout = old
	w.Close()
	out, _ := io.ReadAll(r)
	if ferr != nil {
		t.Fatal(ferr)
	}
	return string(out)
}

// tiny is a workload small enough to step in-process in milliseconds; it
// turns on every feature (stations, z < 1, hotspot, churn).
var tiny = spec{
	Name: "tiny", Nodes: 1200, Shards: 2, L: 40, Z: 0.5, Eval: 100 * time.Millisecond, Adapt: 200 * time.Millisecond,
	StationRadius: 6000, Queries: 12, Churn: 4, QSideMin: 800, QMax: 1600, Think: 150 * time.Millisecond,
	Turn: 0.05, Hotspot: true, Probes: 40, FlipRate: 50,
}

func TestWorldIsAFunctionOfTheSeed(t *testing.T) {
	trace := func(seed uint64) []motion.Report {
		w := newWorld(&tiny, seed)
		var out []motion.Report
		emit := func(_ int, rep motion.Report) { out = append(out, rep) }
		w.start(1000, emit)
		for k := 0; k < 30; k++ {
			for g := 0; g < groups; g++ {
				w.stepGroup(g, simDt, 1000+float64(k+1)*simDt, emit)
			}
		}
		return out
	}
	a := trace(5)
	if !reflect.DeepEqual(a, trace(5)) {
		t.Fatal("same seed gave different reports")
	}
	if reflect.DeepEqual(a, trace(6)) {
		t.Fatal("different seeds gave the same reports")
	}
	w := newWorld(&tiny, 5)
	if w.walkers+tiny.Probes+markers+len(w.stations) != tiny.Nodes || len(w.stations) < 2 {
		t.Fatalf("id layout: %d walkers, %d stations for %d nodes", w.walkers, len(w.stations), tiny.Nodes)
	}
	for p := range w.probeIn {
		r := w.rects[w.probeQuery[p]]
		if !r.ContainsClosed(w.probeIn[p]) || r.ContainsClosed(w.probeOut[p]) || !w.space.Contains(w.probeOut[p]) {
			t.Fatalf("probe %d: inside/outside points are wrong for %v", p, r)
		}
	}
}

// The traced pass must fill every per-layer metric that does not come
// from the socket run, against both engines, without booting a process.
func TestTracedPassFillsEveryLayer(t *testing.T) {
	res := &result{PerLayer: map[string]float64{}, Info: map[string]float64{},
		live: liveCounts{Seconds: 6, CPUSeconds: 1, Offered: 1e4, Applied: 1e4, BatchFrames: 100,
			Ticks: 60, Evaluations: 100, ResultFrames: 760, Adaptations: 30, Registrations: 40}}
	out := t.TempDir() + "/trace.json"
	if err := tracedPass(&tiny, 9, res, out); err != nil {
		t.Fatal(err)
	}
	live := regexp.MustCompile(`^(netsvc\.(frames|records|result|assignment|ledger|ticks|step|register)|engine\.(queue|ring)|controlplane\.adaptations|gen\.)`)
	for _, d := range perLayer {
		v, ok := res.PerLayer[d.Name]
		if live.MatchString(d.Name) {
			continue
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s not filled (%v)", d.Name, v)
		} else if v == 0 && d.Name != "throttler.budget_slack" {
			t.Errorf("%s is zero on a workload that exercises it", d.Name)
		}
	}
	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatal(err)
	}
	ticks, children := 0, 0
	for _, e := range tr.TraceEvents {
		if e.Name == "tick" {
			ticks++
		} else if e.Args["parent"] != nil {
			children++
		}
	}
	if ticks != 2*tracedTicks || children < 10*ticks {
		t.Errorf("trace has %d tick roots and %d child spans", ticks, children)
	}
}
