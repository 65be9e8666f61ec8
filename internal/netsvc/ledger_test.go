package netsvc

import (
	"bytes"
	"encoding/json"
	"net"
	"testing"
	"time"

	"lira/internal/geo"
	"lira/internal/motion"
	"lira/internal/slo"
	"lira/internal/spans"
	"lira/internal/telemetry"
	"lira/internal/wire"
)

// TestLedgerAndSLOOverNetwork drives the full serving stack — raw wire
// frames over TCP, with a span tracer attached and SLOs configured — and
// pins the observability additions end to end: every offered record gets
// exactly one ledger fate (including invalid ids, alone behind a valid
// record and interleaved between two), the SLO tracker surfaces per-target views through
// Introspect, the lira_ledger_* gauges land on the registry, and the
// tracer captures the netsvc tick and update_batch spans as loadable
// trace-event JSON.
func TestLedgerAndSLOOverNetwork(t *testing.T) {
	clk := &fakeClock{}
	hub := telemetry.NewHub(256)
	tracer := spans.New(spans.Config{Capacity: 4096, Seed: 42})
	hub.SetSpans(tracer)
	s, err := Listen("127.0.0.1:0", ServerConfig{
		Core:      coreConfig(64),
		Z:         1,
		EvalEvery: 5 * time.Millisecond,
		Clock:     clk.Now,
		Telemetry: hub,
		SLO: &slo.Config{
			Targets: []slo.Target{
				{Name: "eval_p99", Bound: 10, Objective: 0.99},
				{Name: "inaccuracy", Bound: 0.5, Objective: 0.9},
				{Name: "rung", Bound: 0, Objective: 0.9},
			},
			Window:      24,
			ShortWindow: 4,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() { // drain server-to-client frames
		for {
			if _, _, err := wire.ReadFrame(conn); err != nil {
				return
			}
		}
	}()
	send := func(frame []byte) {
		t.Helper()
		if err := wire.WriteFrame(conn, frame); err != nil {
			t.Fatal(err)
		}
	}
	send(wire.AppendHello(nil, wire.Hello{Node: 1, Pos: geo.Point{X: 100, Y: 100}}))
	rep := func(x float64) motion.Report {
		return motion.Report{Pos: geo.Point{X: x, Y: 100}, Vel: geo.Vector{X: 1}, Time: clk.Now()}
	}
	// One valid record and one out-of-range id (64 nodes configured, so
	// id 4000 is hostile/corrupt): the bad id is the batch's tail.
	var b wire.UpdateBatch
	b.Append(wire.Update{Node: 1, Report: rep(100)})
	b.Append(wire.Update{Node: 4000, Report: rep(100)})
	send(wire.AppendUpdateBatch(nil, &b))
	// Two valid records around an invalid one: the survivors are
	// compacted over the gap before the single admission call.
	b.Reset()
	b.Append(wire.Update{Node: 1, Report: rep(150)})
	b.Append(wire.Update{Node: 4000, Report: rep(150)})
	b.Append(wire.Update{Node: 2, Report: rep(200)})
	send(wire.AppendUpdateBatch(nil, &b))

	// 5 records offered in total; 2 carried invalid ids; the other 3 must
	// reach the motion table.
	waitFor(t, "ledger to settle", func() bool {
		clk.Advance(10)
		led := s.Ledger()
		return led.Offered == 5 && led.Invalid == 2 && led.Applied == 3 && led.Balance == 0
	})

	in := s.Introspect()
	if in.Ledger.Offered != 5 || in.Ledger.Invalid != 2 {
		t.Errorf("introspection ledger = %+v", in.Ledger)
	}
	if len(in.SLO) != 3 || in.SLO[0].Name != "eval_p99" || in.SLO[0].Ticks == 0 {
		t.Errorf("introspection SLO views = %+v", in.SLO)
	}
	for _, v := range in.SLO {
		if v.Alerting {
			t.Errorf("healthy run must not alert: %+v", v)
		}
	}

	// The per-tick gauges mirror the same ledger.
	snap := hub.Registry.Snapshot()
	if got := snap.Counters["lira_ledger_violations_total"]; got != 0 {
		t.Errorf("ledger violations = %d, want 0", got)
	}
	if got := snap.Gauges["lira_ledger_offered"]; got != 5 {
		t.Errorf("lira_ledger_offered gauge = %v, want 5", got)
	}
	if _, ok := snap.Gauges["lira_slo_eval_p99_burn_long"]; !ok {
		t.Error("missing lira_slo_eval_p99_burn_long gauge")
	}

	// Spans: the background tick and the batch frame both traced, and the
	// export is valid trace-event JSON.
	var tick, batch bool
	for _, c := range tracer.ByCategory() {
		if c.Cat == "netsvc" && c.N > 0 {
			tick = true
		}
	}
	for _, sp := range tracer.Snapshot() {
		if sp.Name == "update_batch" {
			batch = true
		}
	}
	if !tick || !batch {
		t.Errorf("expected netsvc tick and update_batch spans (tick=%v batch=%v)", tick, batch)
	}
	var buf bytes.Buffer
	if err := tracer.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("span export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("span export is empty")
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if led := s.Ledger(); led.Balance != 0 {
		t.Errorf("ledger unbalanced after close: %+v", led)
	}
}
