package shard

import (
	"bytes"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lira/internal/cqserver"
	"lira/internal/geo"
	"lira/internal/motion"
	"lira/internal/telemetry"
)

// TestEvaluateWorkerLabelContexts pins the pre-built pprof label
// contexts: with telemetry attached every shard gets a predict and a
// scan context carrying lira_phase and lira_shard, and without telemetry
// none are built (the hot path must not pay for unused labels).
func TestEvaluateWorkerLabelContexts(t *testing.T) {
	const k = 4
	s := testSharded(t, k, func(cfg *Config) {
		cfg.Core.Telemetry = telemetry.NewHub(0)
	})
	if len(s.lblPredict) != k || len(s.lblScan) != k {
		t.Fatalf("label contexts: predict %d, scan %d, want %d each", len(s.lblPredict), len(s.lblScan), k)
	}
	for i := 0; i < k; i++ {
		if v, ok := pprof.Label(s.lblPredict[i], "lira_phase"); !ok || v != "predict" {
			t.Errorf("shard %d predict lira_phase = %q, %v", i, v, ok)
		}
		if v, ok := pprof.Label(s.lblScan[i], "lira_phase"); !ok || v != "scan" {
			t.Errorf("shard %d scan lira_phase = %q, %v", i, v, ok)
		}
		if v, ok := pprof.Label(s.lblPredict[i], "lira_shard"); !ok || v != strconv.Itoa(i) {
			t.Errorf("shard %d predict lira_shard = %q, %v", i, v, ok)
		}
		if v, ok := pprof.Label(s.lblScan[i], "lira_shard"); !ok || v != strconv.Itoa(i) {
			t.Errorf("shard %d scan lira_shard = %q, %v", i, v, ok)
		}
	}

	bare := testSharded(t, k, nil)
	if bare.lblPredict != nil || bare.lblScan != nil {
		t.Error("label contexts built without telemetry attached")
	}
}

// TestEvaluateWorkerLabelsVisible drives Evaluate in a loop on a
// background goroutine and polls the goroutine profile until a worker
// shows up labeled lira_phase=predict|scan with a lira_shard tag —
// proving the labels are actually applied during the phases, not just
// constructed. The phases are microseconds long, so this samples until
// it catches one; with Evaluate running back-to-back the labeled
// fraction of wall time is large and the poll converges immediately in
// practice.
func TestEvaluateWorkerLabelsVisible(t *testing.T) {
	s := testSharded(t, 4, func(cfg *Config) {
		cfg.Core.Telemetry = telemetry.NewHub(0)
		cfg.Core.Nodes = 4000
	})
	// Populate every shard so predict and scan have real work.
	for i := 0; i < 4000; i++ {
		x := float64(i%100) * 10
		y := float64(i/100) * 25
		s.IngestShedOldest(cqserver.Update{
			Node:   i,
			Report: motion.Report{Pos: geo.Point{X: x, Y: y}, Vel: geo.Vector{X: 1, Y: 1}, Time: 0},
		})
	}
	s.Drain(-1)
	s.RegisterQueries([]geo.Rect{
		geo.NewRect(0, 0, 500, 500),
		geo.NewRect(250, 250, 900, 900),
		geo.NewRect(600, 100, 1000, 600),
	})

	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		now := 1.0
		for !stop.Load() {
			s.Evaluate(now)
			now += 0.1
		}
	}()
	defer func() { stop.Store(true); <-done }()

	prof := pprof.Lookup("goroutine")
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var buf bytes.Buffer
		if err := prof.WriteTo(&buf, 1); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if !strings.Contains(line, `"lira_phase":"predict"`) &&
				!strings.Contains(line, `"lira_phase":"scan"`) {
				continue
			}
			if !strings.Contains(line, `"lira_shard":`) {
				t.Fatalf("labeled worker missing lira_shard: %s", line)
			}
			return // caught a worker mid-phase with both labels
		}
	}
	t.Fatal("no goroutine carrying lira_phase=predict|scan labels observed")
}
