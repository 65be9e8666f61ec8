package netsvc

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"lira/internal/admission"
	"lira/internal/geo"
	"lira/internal/motion"
	"lira/internal/spans"
	"lira/internal/telemetry"
	"lira/internal/wire"
)

// pipeServer builds a server whose only goroutine is one connection
// handler on an in-memory pipe: no accept loop, no tick, no drainer, so
// the test decides when each runs. It returns the client end; closing it
// ends the handler.
func pipeServer(t *testing.T, cfg ServerConfig) (*Server, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s, err := newServer(ln, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srvEnd, cliEnd := net.Pipe()
	s.wg.Add(1)
	go s.handleConn(&srvConn{c: srvEnd, seq: 1})
	t.Cleanup(func() {
		cliEnd.Close()
		s.Close()
	})
	return s, cliEnd
}

// batchFrame encodes one UpdateBatch frame of n records for ids
// first, first+1, ... (mod nodes), all inside the test space.
func batchFrame(dst []byte, first, n, nodes int) []byte {
	var b wire.UpdateBatch
	for i := 0; i < n; i++ {
		id := (first + i) % nodes
		b.Append(wire.Update{Node: uint32(id), Report: motion.Report{
			Pos: geo.Point{X: float64(10 + id), Y: 20}, Time: float64(first + i),
		}})
	}
	return wire.AppendUpdateBatch(dst, &b)
}

// exchange writes stream followed by a Ping and reads frames until the
// Pong. A connection handles its frames in order, so when it returns every
// frame of stream has been handled; it returns the frame types read
// before the Pong.
func exchange(c net.Conn, stream []byte) ([]wire.Type, error) {
	stream = wire.AppendPing(stream, wire.Ping{Token: 7})
	errc := make(chan error, 1)
	go func() { errc <- wire.WriteFrame(c, stream) }()
	var before []wire.Type
	for {
		typ, _, err := wire.ReadFrame(c)
		if err != nil {
			return before, err
		}
		if typ == wire.TypePong {
			break
		}
		before = append(before, typ)
	}
	return before, <-errc
}

func mustExchange(t *testing.T, c net.Conn, stream []byte) []wire.Type {
	t.Helper()
	before, err := exchange(c, stream)
	if err != nil {
		t.Fatal(err)
	}
	return before
}

// TestDrainerWakesAtWatermark pins the service path between ticks: a
// batch that leaves B/4 records queued leaves exactly one wake-up pending
// (one below leaves none, and further batches do not block on the full
// doorbell), and one pass of the drainer's body applies the queue with no
// tick run — counted on lira_queue_offtick_drains_total, not on
// lira_ticks_total.
func TestDrainerWakesAtWatermark(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("K=%d", shards), func(t *testing.T) {
			const nodes = 64
			core := coreConfig(nodes)
			core.QueueSize = 64
			hub := telemetry.NewHub(0)
			s, c := pipeServer(t, ServerConfig{
				Core: core, Shards: shards, Z: 1, EvalEvery: time.Hour, Telemetry: hub,
			})
			if s.watermark != 16 {
				t.Fatalf("watermark = %d, want B/4 = 16", s.watermark)
			}
			ticks := hub.Registry.Counter("lira_ticks_total")
			drains := hub.Registry.Counter("lira_queue_offtick_drains_total")

			mustExchange(t, c, batchFrame(nil, 0, 15, nodes))
			if len(s.wake) != 0 {
				t.Fatal("15 queued records (below B/4) rang the drainer")
			}
			mustExchange(t, c, batchFrame(nil, 15, 1, nodes))
			if len(s.wake) != 1 {
				t.Fatal("16 queued records (B/4) left no wake-up pending")
			}
			// A second batch over the watermark finds the doorbell rung and
			// moves on: the wake-up is non-blocking and still single.
			mustExchange(t, c, batchFrame(nil, 16, 16, nodes))
			if len(s.wake) != 1 {
				t.Fatalf("%d wake-ups pending, want 1", len(s.wake))
			}
			if got := s.Ledger(); got.Applied != 0 || got.Queued != 32 {
				t.Fatalf("before the drainer ran: %+v, want 0 applied, 32 queued", got)
			}

			<-s.wake
			if n := s.drainOffTick(); n != 32 {
				t.Errorf("drainer applied %d records, want 32", n)
			}
			if got := s.Ledger(); got.Applied != 32 || got.Queued != 0 || got.Balance != 0 {
				t.Errorf("after the drainer ran: %+v, want 32 applied, 0 queued, balance 0", got)
			}
			if got := drains.Value(); got != 1 {
				t.Errorf("lira_queue_offtick_drains_total = %d, want 1", got)
			}
			if got := ticks.Value(); got != 0 {
				t.Errorf("lira_ticks_total = %d, want 0 (no tick ran)", got)
			}
		})
	}
}

// TestDrainerOffWithDrainPerTick pins DrainPerTick's meaning as an
// emulated service rate: no drainer is started and no batch rings one, so
// a queue filled past B/4 waits for the tick.
func TestDrainerOffWithDrainPerTick(t *testing.T) {
	const nodes = 64
	core := coreConfig(nodes)
	core.QueueSize = 64
	hub := telemetry.NewHub(0)
	s, c := pipeServer(t, ServerConfig{
		Core: core, Z: 1, EvalEvery: time.Hour, DrainPerTick: 3, Telemetry: hub,
	})
	if s.watermark != 0 {
		t.Fatalf("watermark = %d with DrainPerTick set, want 0 (no drainer)", s.watermark)
	}
	mustExchange(t, c, batchFrame(nil, 0, 48, nodes))
	if len(s.wake) != 0 {
		t.Error("a batch rang the drainer with DrainPerTick set")
	}
	if got := s.Ledger(); got.Applied != 0 || got.Queued != 48 {
		t.Errorf("ledger = %+v, want 0 applied, 48 queued (served on the tick only)", got)
	}
	if got := hub.Registry.Counter("lira_queue_offtick_drains_total").Value(); got != 0 {
		t.Errorf("lira_queue_offtick_drains_total = %d, want 0", got)
	}
}

// TestDrainerLedgerConcurrentConns runs the drainer against four
// connections ingesting at once (run it under -race): frames larger than
// the queue force ring sheds, every seventh id is out of range, and the
// ladder sits at its shed rung, so every fate of the ledger is exercised.
// Once all traffic has stopped, Offered = Applied + Ringshed + Invalid +
// Preshed + Queued exactly, before Close and after it.
func TestDrainerLedgerConcurrentConns(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("K=%d", shards), func(t *testing.T) {
			const nodes, conns, frames = 64, 4, 40
			core := coreConfig(nodes)
			core.QueueSize = 64
			hub := telemetry.NewHub(0)
			s, err := Listen("127.0.0.1:0", ServerConfig{
				Core: core, Shards: shards, Z: 1, EvalEvery: time.Hour, Telemetry: hub,
				Admission: &admission.Config{
					Thresholds:    admission.Thresholds{QueueFrac: [3]float64{0.30, 0.55, 0.85}},
					EscalateAfter: 1,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < 2; i++ { // healthy → warning → shed
				s.adm.Observe(admission.Signals{QueueFrac: 0.6})
			}
			if s.adm.State() != admission.Shed {
				t.Fatalf("rung = %v, want shed", s.adm.State())
			}

			var wg sync.WaitGroup
			var sent [conns]int
			var cs [conns]net.Conn
			for ci := range cs {
				c, err := net.Dial("tcp", s.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				cs[ci] = c
				wg.Add(1)
				go func() {
					defer wg.Done()
					var stream []byte
					for f := 0; f < frames; f++ {
						n := []int{10, 30, 100}[f%3]
						var b wire.UpdateBatch
						for i := 0; i < n; i++ {
							id := uint32((ci*frames + f + i) % nodes)
							if i%7 == 3 {
								id = nodes + 100 // out of range
							}
							b.Append(wire.Update{Node: id, Report: motion.Report{
								Pos: geo.Point{X: float64(5 * i), Y: float64(5 * f)}, Time: float64(f),
							}})
						}
						stream = wire.AppendUpdateBatch(stream, &b)
						sent[ci] += n
					}
					if _, err := exchange(c, stream); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()

			total := int64(0)
			for _, n := range sent {
				total += int64(n)
			}
			check := func(when string) {
				t.Helper()
				v := s.Ledger()
				if v.Offered != total {
					t.Errorf("%s: offered %d, want %d", when, v.Offered, total)
				}
				if v.Offered != v.Applied+v.Ringshed+v.Invalid+v.Preshed+v.Queued || v.Balance != 0 {
					t.Errorf("%s: ledger does not conserve: %+v", when, v)
				}
				if v.Invalid == 0 || v.Preshed == 0 || v.Ringshed == 0 {
					t.Errorf("%s: a fate went unexercised: %+v", when, v)
				}
			}
			check("traffic stopped")
			// Close waits for every handler, and these connections sent no
			// hello for it to hang up on.
			for _, c := range cs {
				c.Close()
			}
			s.Close()
			check("after Close")
			if q := s.Ledger().Queued; q != 0 {
				t.Errorf("Close left %d records queued", q)
			}
		})
	}
}

// TestAllocsIngestBatch gates the steady-state server side of a report:
// a batch from a camped, in-coverage node through ingestBatch, then one
// drainer pass, allocates nothing, on both engines.
func TestAllocsIngestBatch(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("K=%d", shards), func(t *testing.T) {
			const nodes, n = 64, 64 // n = B/4: every batch reaches the watermark
			core := coreConfig(nodes)
			core.QueueSize = 256
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			s, err := newServer(ln, ServerConfig{
				Core: core, Shards: shards, Z: 1, EvalEvery: time.Hour, Telemetry: telemetry.NewHub(0),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var b wire.UpdateBatch
			for i := 0; i < n; i++ {
				s.nodeStation[uint32(i)] = 0 // camped on the one station, which covers the space
				b.Append(wire.Update{Node: uint32(i), Report: motion.Report{
					Pos: geo.Point{X: float64(50 * i), Y: 1000}, Vel: geo.Vector{X: 1}, Time: 1,
				}})
			}
			step := func() {
				if !s.ingestBatch(nil, &b, spans.Ctx{}) {
					t.Fatal("a batch of B/4 records did not report the watermark")
				}
				if got := s.drainOffTick(); got != n {
					t.Fatalf("drained %d, want %d", got, n)
				}
			}
			step() // warm the engine's high-water buffers
			if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
				t.Errorf("ingestBatch + off-tick drain allocates %.1f/op in steady state, want 0", allocs)
			}
		})
	}
}

// TestAdaptSendsOncePerConnStation pins the rebroadcast: three node ids
// camped on one station over one connection hear each Adapt's assignment
// once, not once per node.
func TestAdaptSendsOncePerConnStation(t *testing.T) {
	hub := telemetry.NewHub(0)
	s, c := pipeServer(t, ServerConfig{Core: coreConfig(64), Z: 1, EvalEvery: time.Hour, Telemetry: hub})
	var hellos []byte
	for id := uint32(1); id <= 3; id++ {
		hellos = wire.AppendHello(hellos, wire.Hello{Node: id, Pos: geo.Point{X: 100, Y: 100}})
	}
	if got := mustExchange(t, c, hellos); len(got) != 3 {
		t.Fatalf("%d frames answered 3 hellos, want 3 assignments", len(got))
	}
	sent := hub.Registry.Counter("lira_frames_sent_assignment_total")
	for round := 0; round < 2; round++ {
		before := sent.Value()
		if err := s.Adapt(); err != nil {
			t.Fatal(err)
		}
		if got := sent.Value() - before; got != 1 {
			t.Errorf("Adapt sent %d assignment frames to one connection on one station, want 1", got)
		}
		if typ, _, err := wire.ReadFrame(c); err != nil || typ != wire.TypeAssignment {
			t.Fatalf("read %v, %v; want an assignment", typ, err)
		}
		if got := mustExchange(t, c, nil); len(got) != 0 {
			t.Errorf("%d more frames after the one assignment, want 0", len(got))
		}
	}
}
