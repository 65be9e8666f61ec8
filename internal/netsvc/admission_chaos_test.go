package netsvc

import (
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"lira/internal/admission"
	"lira/internal/cqserver"
	"lira/internal/faultnet"
	"lira/internal/fmodel"
	"lira/internal/geo"
	"lira/internal/metrics"
	"lira/internal/telemetry"
)

// TestChaosAdmissionOverloadPartition is the degradation-ladder
// acceptance harness: a real server with admission control enabled, a
// node fleet flooding it over a lossy faultnet fabric, and a forced
// partition in the middle of the overload. Invariants:
//
//   - the ladder escalates under the flood (at least to the shed rung)
//     and every journaled transition moves exactly one rung — monotone
//     per-step, never a jump;
//   - the shed rung actually pre-rejects ingest (PreShed grows);
//   - after the flood stops and the partition heals, the ladder steps
//     back down to healthy within a bounded wait, and its actions are
//     unwound (admission transparent again);
//   - no goroutines leak after Server.Close, under -race.
func TestChaosAdmissionOverloadPartition(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			admissionChaosRun(t, seed)
		})
	}
}

func admissionChaosRun(t *testing.T, seed uint64) {
	baseline := runtime.NumGoroutine()
	const nodes = 4

	fabric := faultnet.New(seed, faultnet.Config{
		Drop:     0.05,
		Dup:      0.02,
		MaxDelay: time.Millisecond,
		Record:   true,
	})
	counters := &metrics.NetCounters{}
	clk := &fakeClock{}
	hub := telemetry.NewHub(0)

	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Serve(fabric.WrapListener(raw, "srv"), ServerConfig{
		Core: cqserver.Config{
			Space:     space(),
			Nodes:     64,
			L:         13,
			QueueSize: 64,
			Curve:     fmodel.Hyperbolic(5, 100, 19),
		},
		Z:            0.8,
		EvalEvery:    5 * time.Millisecond,
		DrainPerTick: 2, // slow consumer: the flood must back the queue up
		ReadTimeout:  500 * time.Millisecond,
		Counters:     counters,
		Clock:        clk.Now,
		Telemetry:    hub,
		Admission: &admission.Config{
			// Queue occupancy is the only live signal: the process-health
			// thresholds are disabled (zero) so a busy test runner cannot
			// sway the walk.
			Thresholds:    admission.Thresholds{QueueFrac: [3]float64{0.30, 0.55, 0.85}},
			EscalateAfter: 1,
			RecoverAfter:  2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	adm := s.Admission()
	if adm == nil {
		t.Fatal("admission controller not wired")
	}
	addr := s.Addr().String()

	clients := make([]*NodeClient, nodes)
	for i := range clients {
		label := fmt.Sprintf("node-%d", i)
		c, err := DialNodeConfig(addr, NodeConfig{
			ID:             uint32(i),
			Pos:            geo.Point{X: 200 + 300*float64(i), Y: 1000},
			FallbackDelta:  5,
			Dialer:         func(a string) (net.Conn, error) { return fabric.Dial(a, label) },
			HeartbeatEvery: 25 * time.Millisecond,
			ReadTimeout:    250 * time.Millisecond,
			WriteTimeout:   500 * time.Millisecond,
			BackoffBase:    5 * time.Millisecond,
			BackoffMax:     40 * time.Millisecond,
			Seed:           seed*1000 + uint64(i),
			Counters:       counters,
		})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}

	// Flood: 20 m hops at zero reported velocity defeat every throttler,
	// so each Observe emits a frame. The drain bound (2/tick) guarantees
	// queue pressure regardless of host speed. Partition mid-flood.
	flood := func(steps int) {
		for step := 0; step < steps; step++ {
			clk.Advance(200)
			for i, c := range clients {
				p := geo.Point{X: 200 + 300*float64(i) + 20*float64(step%2), Y: 1000}
				c.Observe(p, geo.Vector{}, clk.Now()) // send errors expected mid-partition
			}
		}
	}
	escalated := make(chan struct{})
	go func() {
		defer close(escalated)
		deadline := time.Now().Add(15 * time.Second)
		for adm.State() < admission.Shed {
			if time.Now().After(deadline) {
				return
			}
			flood(5)
			time.Sleep(time.Millisecond)
		}
	}()
	<-escalated
	if got := adm.State(); got < admission.Shed {
		t.Fatalf("ladder never reached shed under flood: state=%v view=%+v", got, adm.View())
	}
	// Keep flooding while shed is active until the pre-ring gate provably
	// rejects live traffic — frames need a moment to traverse the client
	// flusher and the fabric (the queue stays saturated throughout, so
	// the ladder cannot step down mid-burst).
	shedDeadline := time.Now().Add(15 * time.Second)
	for adm.PreShed() == 0 && time.Now().Before(shedDeadline) {
		flood(5)
		time.Sleep(2 * time.Millisecond)
	}

	// Partition on top of the overload, keep flooding into the dead
	// links, then heal. The ladder must not thrash downward mid-incident
	// faster than hysteresis allows — that is checked via the journal's
	// one-rung transition invariant below.
	fabric.Partition()
	flood(20)
	fabric.Heal()

	// Shed rung rejected real ingest ahead of the queue.
	if adm.PreShed() == 0 {
		t.Error("shed rung admitted everything: PreShed = 0")
	}

	// Load subsides: stop flooding entirely and let the drain catch up.
	// The ladder must recover to healthy within a bounded wait and its
	// pre-ring gate must be transparent again.
	deadline := time.Now().Add(20 * time.Second)
	for adm.State() != admission.Healthy {
		if time.Now().After(deadline) {
			t.Fatalf("ladder never recovered: view=%+v introspect=%+v", adm.View(), s.Introspect())
		}
		time.Sleep(10 * time.Millisecond)
	}
	preShed := adm.PreShed()
	s.mu.Lock()
	s.eng.Drain(-1)
	s.mu.Unlock()
	if got := adm.AdmitN(5); got != 5 {
		t.Errorf("healthy AdmitN(5) = %d, want transparent admission after recovery", got)
	}
	if got := adm.PreShed(); got != preShed {
		t.Errorf("healthy admission still shedding: PreShed %d -> %d", preShed, got)
	}

	// Journal invariants: at least one admission record per tick that
	// changed state, every transition exactly one rung, and the walk both
	// escalated and recovered (first transition up from healthy, last one
	// down to healthy).
	rank := map[string]int{"healthy": 0, "warning": 1, "shed": 2, "critical": 3}
	var trans []*telemetry.AdmissionEvent
	for _, rec := range hub.Journal.Tail(hub.Journal.Len()) {
		if rec.Kind != telemetry.KindAdmission || rec.Admission == nil {
			continue
		}
		if rec.Admission.From != "" {
			trans = append(trans, rec.Admission)
		}
	}
	if len(trans) < 3 {
		t.Fatalf("admission transitions journaled = %d, want ≥ 3 (escalate to shed and back)", len(trans))
	}
	for i, ev := range trans {
		from, okF := rank[ev.From]
		to, okT := rank[ev.State]
		if !okF || !okT {
			t.Fatalf("transition %d has unknown rungs: %+v", i, ev)
		}
		if d := to - from; d != 1 && d != -1 {
			t.Errorf("transition %d jumps %s→%s: the ladder moves one rung per tick", i, ev.From, ev.State)
		}
	}
	if first := trans[0]; first.From != "healthy" || first.State != "warning" {
		t.Errorf("first transition = %s→%s, want healthy→warning", first.From, first.State)
	}
	if last := trans[len(trans)-1]; last.State != "healthy" {
		t.Errorf("last transition = %s→%s, want a step down to healthy", last.From, last.State)
	}

	// The introspection view must expose the ladder.
	if in := s.Introspect(); in.Admission == nil || in.Admission.State != "healthy" {
		t.Errorf("introspection admission view = %+v, want healthy ladder", in.Admission)
	}

	for _, c := range clients {
		c.Close()
	}
	if err := s.Close(); err != nil {
		t.Errorf("server close: %v", err)
	}
	// Conservation holds through the overload storm: pre-shed, ring-shed,
	// applied, and queued must sum back to offered once Close drains the
	// rings (panic-free runs only; see chaosRun).
	if led := s.Ledger(); s.Counters().Panics.Load() == 0 && led.Balance != 0 {
		t.Errorf("conservation ledger unbalanced after overload chaos: %+v", led)
	}
	waitGoroutines(t, baseline+2)
}
