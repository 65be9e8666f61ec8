package netsvc

import (
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"testing"
	"time"

	"lira/internal/admission"
	"lira/internal/basestation"
	"lira/internal/cqserver"
	"lira/internal/engine"
	"lira/internal/fmodel"
	"lira/internal/geo"
	"lira/internal/motion"
	"lira/internal/spans"
	"lira/internal/telemetry"
	"lira/internal/wire"
)

func coreConfig(nodes int) cqserver.Config {
	return cqserver.Config{
		Space: space(),
		Nodes: nodes,
		L:     13,
		Curve: fmodel.Hyperbolic(5, 100, 19),
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBatchedUpdateFlow proves the one update path end to end: a default
// client must deliver its reports inside UpdateBatch frames (visible in
// the frame counters) and the server must apply them.
func TestBatchedUpdateFlow(t *testing.T) {
	for _, shards := range []int{1, 4} {
		clk := &fakeClock{}
		hub := telemetry.NewHub(0)
		s, err := Listen("127.0.0.1:0", ServerConfig{
			Core:      coreConfig(64),
			Shards:    shards,
			Z:         1,
			EvalEvery: 10 * time.Millisecond,
			Clock:     clk.Now,
			Telemetry: hub,
		})
		if err != nil {
			t.Fatal(err)
		}
		c, err := DialNode(s.Addr().String(), 1, geo.Point{X: 100, Y: 100}, 5)
		if err != nil {
			t.Fatal(err)
		}
		batches := hub.Registry.Counter("lira_frames_read_update_batch_total")
		// Every observation moves far past the 5-unit threshold, so each
		// generates a report; the flusher ships them within ~5ms.
		x := 100.0
		waitFor(t, "batched updates applied", func() bool {
			x += 50
			clk.Advance(100)
			if _, err := c.Observe(geo.Point{X: x, Y: 100}, geo.Vector{}, clk.Now()); err != nil {
				t.Fatal(err)
			}
			return batches.Value() > 0 && s.Introspect().Applied > 0
		})
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
}

// TestReservedUpdateCodeDropsConnection pins the single update path from
// the outside: type code 2 (once a per-report update frame) is a protocol
// violation like any unknown type. The connection that sends it is
// dropped and counted, nothing is offered to the engine, and the server
// keeps serving everyone else.
func TestReservedUpdateCodeDropsConnection(t *testing.T) {
	clk := &fakeClock{}
	hub := telemetry.NewHub(0)
	s, err := Listen("127.0.0.1:0", ServerConfig{
		Core: coreConfig(64), Z: 1, EvalEvery: 10 * time.Millisecond,
		Clock: clk.Now, Telemetry: hub,
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
	// A 28-byte payload under type code 2: the retired frame's exact shape.
	frame := append([]byte{28, 0, 0, 0, 2}, make([]byte, 28)...)
	if err := wire.WriteFrame(conn, frame); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := wire.ReadFrame(conn); err != io.EOF {
		t.Fatalf("read after a code-2 frame = %v, want io.EOF (connection dropped)", err)
	}
	if got := hub.Registry.Counter("lira_frames_read_bad_total").Value(); got != 1 {
		t.Errorf("lira_frames_read_bad_total = %d, want 1", got)
	}
	if led := s.Ledger(); led.Offered != 0 {
		t.Errorf("a code-2 frame offered %d records, want 0", led.Offered)
	}
	// A second connection is served as if nothing happened.
	c, err := DialNode(s.Addr().String(), 1, geo.Point{X: 100, Y: 100}, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Observe(geo.Point{X: 100, Y: 100}, geo.Vector{}, clk.Now()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "second connection's report applied", func() bool {
		return s.Introspect().Applied == 1
	})
}

// TestMixedBatchMatchesPerRecordReference drives ingestBatch — compact
// the admitted suffix, one columnar admission, hand-off over the
// compacted columns — against the per-record definition it replaces:
// skip the pre-shed prefix, discard each out-of-range id, offer every
// other record to a shed-oldest queue one at a time and run the hand-off
// check on it. Ledger, shed count, single-counted arrivals, the motion
// table after the drain (duplicate ids make it order-sensitive) and the
// hand-offs must all agree, with and without a pre-shed offset, with and
// without overflow, on both engines.
func TestMixedBatchMatchesPerRecordReference(t *testing.T) {
	const nodes, bad = 16, 4000
	stations := []basestation.Station{
		{ID: 0, Center: geo.Point{X: 500, Y: 1000}, Radius: 900},
		{ID: 1, Center: geo.Point{X: 1500, Y: 1000}, Radius: 900},
	}
	admCfg := admission.Config{
		Thresholds:    admission.Thresholds{QueueFrac: [3]float64{0.30, 0.55, 0.85}},
		EscalateAfter: 1,
	}
	cases := []struct {
		name    string
		queue   int
		preshed bool
		batches [][]uint32 // node ids, one slice per frame
	}{
		{"all valid", 64, false, [][]uint32{{1, 2, 3, 1}}},
		{"interleaved", 64, false, [][]uint32{{bad, 1, bad, bad, 2, 1, bad, 3, bad}}},
		{"all invalid", 64, false, [][]uint32{{bad, bad, bad}}},
		{"interleaved, overflow across frames", 6, false, [][]uint32{{1, bad, 2, 3, 4}, {5, bad, bad, 6, 1, 7}}},
		{"interleaved, frame larger than the queue", 4, false, [][]uint32{{1, bad, 2, 3, bad, 4, 5, 6, bad, 1, 7}}},
		{"pre-shed, all valid", 64, true, [][]uint32{{1, 2, 3, 4, 5, 6}}},
		{"pre-shed, interleaved", 64, true, [][]uint32{{1, bad, 2, bad, 3, bad, 1, bad, 4}}},
		{"pre-shed, interleaved, overflow", 3, true, [][]uint32{{1, bad, 2, 3}, {bad, 4, 5, bad, 6, 7, bad, 1, bad, 3, 2}}},
	}
	for _, tc := range cases {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/K=%d", tc.name, shards), func(t *testing.T) {
				core := coreConfig(nodes)
				core.QueueSize = tc.queue
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				// An hour-long tick: nothing but this test touches the engine.
				s, err := Serve(ln, ServerConfig{
					Core: core, Shards: shards, Stations: stations, Z: 1,
					EvalEvery: time.Hour, Admission: &admCfg,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				ref, err := engine.New(core, shards)
				if err != nil {
					t.Fatal(err)
				}
				refAdm, err := admission.New(admCfg)
				if err != nil {
					t.Fatal(err)
				}
				if tc.preshed { // two ticks at 60 % occupancy: healthy → warning → shed
					for i := 0; i < 2; i++ {
						s.adm.Observe(admission.Signals{QueueFrac: 0.6})
						refAdm.Observe(admission.Signals{QueueFrac: 0.6})
					}
					if s.adm.State() != admission.Shed {
						t.Fatalf("rung = %v, want shed", s.adm.State())
					}
				}
				// Every valid node is camped on station 0; a report east of
				// x = 1400 (the tenth record on) leaves its coverage and hands the node to station 1.
				srvEnd, cliEnd := net.Pipe()
				defer cliEnd.Close()
				frames := make(chan int)
				go func() {
					n := 0
					for {
						if _, _, err := wire.ReadFrame(cliEnd); err != nil {
							frames <- n
							return
						}
						n++
					}
				}()
				sc := &srvConn{c: srvEnd}
				refStation := map[uint32]int{}
				for id := uint32(0); id < nodes; id++ {
					s.nodeStation[id] = 0
					refStation[id] = 0
				}

				var want LedgerView
				wantFrames, seq := 0, 0
				for _, ids := range tc.batches {
					var b wire.UpdateBatch
					for _, id := range ids {
						seq++
						b.Append(wire.Update{Node: id, Report: motion.Report{
							Pos: geo.Point{X: float64(150 * seq), Y: 1000}, Vel: geo.Vector{X: float64(seq)}, Time: float64(seq),
						}})
					}
					n := b.Len()
					want.Offered += int64(n)
					off := n - refAdm.AdmitN(n)
					want.Preshed += int64(off)
					for i := off; i < n; i++ {
						u := b.Update(i)
						if u.Node >= nodes {
							want.Invalid++
							continue
						}
						if ref.IngestShedOldest(cqserver.Update{Node: int(u.Node), Report: u.Report}) {
							want.Ringshed++
						}
						if st := refStation[u.Node]; !stations[st].Covers(u.Report.Pos) {
							if next := basestation.StationFor(stations, u.Report.Pos); next >= 0 && next != st {
								refStation[u.Node] = next
								wantFrames++
							}
						}
					}
					s.ingestBatch(sc, &b, spans.Ctx{})
				}
				srvEnd.Close()
				if got := <-frames; got != wantFrames {
					t.Errorf("hand-off frames = %d, want %d", got, wantFrames)
				}
				for id, st := range refStation {
					if s.nodeStation[id] != st {
						t.Errorf("node %d camped on station %d, want %d", id, s.nodeStation[id], st)
					}
				}

				want.Queued = int64(ref.QueueLen())
				if got := s.Ledger(); got != want || got.Balance != 0 {
					t.Errorf("ledger = %+v, want %+v (balance 0)", got, want)
				}
				if got := s.Counters().ShedFrames.Load(); got != want.Ringshed {
					t.Errorf("ShedFrames = %d, want %d", got, want.Ringshed)
				}
				if got, w := s.Core().Arrived(), ref.Arrived(); got != w {
					t.Errorf("Arrived = %d, want %d (each admitted record counts one arrival)", got, w)
				}
				if got, w := s.Core().Drain(-1), ref.Drain(-1); got != w {
					t.Errorf("drained %d, want %d", got, w)
				}
				for id := 0; id < nodes; id++ {
					got, gok := s.Core().Table().Report(id)
					w, wok := ref.Table().Report(id)
					if got != w || gok != wok {
						t.Errorf("node %d: table holds %+v (%v), want %+v (%v)", id, got, gok, w, wok)
					}
				}
			})
		}
	}
}

// TestNonFiniteRegistrationsRejected pins the trust boundary for the two
// client frames that carry floats: a Query with a NaN, infinite or
// inverted rect and a Hello at a non-finite position are refused before
// any state changes — counted, journaled, the connection and its earlier
// registrations left intact.
func TestNonFiniteRegistrationsRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, shards := range []int{1, 2} {
		clk := &fakeClock{}
		hub := telemetry.NewHub(64)
		s, err := Listen("127.0.0.1:0", ServerConfig{
			Core: coreConfig(64), Shards: shards, Z: 1, EvalEvery: 10 * time.Millisecond,
			Clock: clk.Now, Telemetry: hub,
		})
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		go func() { // drain results and assignments
			for {
				if _, _, err := wire.ReadFrame(conn); err != nil {
					return
				}
			}
		}()
		first, last := geo.NewRect(0, 0, 500, 500), geo.NewRect(500, 500, 900, 900)
		var stream []byte
		stream = wire.AppendQuery(stream, wire.Query{ID: 0, Rect: first})
		for i, r := range []geo.Rect{
			{MinX: nan, MinY: nan, MaxX: nan, MaxY: nan},
			{MinX: -inf, MinY: -inf, MaxX: inf, MaxY: inf},
			{MinX: 10, MinY: 10, MaxX: nan, MaxY: 20},
			{MinX: 300, MinY: 10, MaxX: 100, MaxY: 20}, // inverted
		} {
			stream = wire.AppendQuery(stream, wire.Query{ID: uint32(1 + i), Rect: r})
		}
		// A junk rect under an id already registered must not replace it.
		stream = wire.AppendQuery(stream, wire.Query{ID: 0, Rect: geo.Rect{MinX: nan}})
		stream = wire.AppendHello(stream, wire.Hello{Node: 5, Pos: geo.Point{X: nan, Y: inf}})
		stream = wire.AppendQuery(stream, wire.Query{ID: 9, Rect: last})
		if err := wire.WriteFrame(conn, stream); err != nil {
			t.Fatal(err)
		}
		// The last registration arriving on the same connection proves the
		// six refusals before it neither closed nor desynchronised it.
		waitFor(t, "valid registrations", func() bool { return s.Introspect().Queries == 2 })
		s.mu.Lock()
		qs := append([]geo.Rect(nil), s.eng.Queries()...)
		_, camped := s.nodeConns[5]
		s.mu.Unlock()
		if len(qs) != 2 || qs[0] != first || qs[1] != last {
			t.Errorf("K=%d: Queries() = %v, want [%v %v]", shards, qs, first, last)
		}
		if camped {
			t.Errorf("K=%d: node 5 camped from a hello at (NaN, +Inf)", shards)
		}
		if got := hub.Registry.Counter("lira_frames_read_bad_total").Value(); got != 6 {
			t.Errorf("K=%d: lira_frames_read_bad_total = %d, want 6", shards, got)
		}
		rejects := 0
		for _, rec := range hub.Journal.Tail(64) {
			if rec.Net != nil && rec.Net.Event == "reject" {
				rejects++
			}
		}
		if rejects != 6 {
			t.Errorf("K=%d: %d reject records journaled, want 6", shards, rejects)
		}
		conn.Close()
		s.Close()
	}
}

// TestBatchFlusherShutdownNoLeak pins the flusher goroutine's lifecycle:
// dialing starts it, Close reaps it. The goroutine census must return to
// its pre-dial level.
func TestBatchFlusherShutdownNoLeak(t *testing.T) {
	clk := &fakeClock{}
	s := startServer(t, clk.Now, 1)
	time.Sleep(20 * time.Millisecond) // let server goroutines settle
	base := runtime.NumGoroutine()
	c, err := DialNode(s.Addr().String(), 2, geo.Point{X: 200, Y: 200}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Observe(geo.Point{X: 260, Y: 200}, geo.Vector{}, clk.Now()); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
}
