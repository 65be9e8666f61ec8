// Package netsvc deploys the LIRA architecture over TCP: a server process
// hosting layer 1 (the mobile CQ server) and the logical layer-2 base
// stations, and client runtimes for layer-3 mobile nodes and for query
// subscribers. Messages use the wire package's binary formats, so the
// broadcast sizes match the paper's §4.3.2 accounting.
//
// The server drives an Engine — the unsharded cqserver.Server, or the
// spatially sharded shard.Server when ServerConfig.Shards > 1; both
// produce byte-identical query results, so sharding is purely an
// evaluation-parallelism knob. Periodic work — draining the input queue,
// refreshing statistics, re-running the adaptation, evaluating queries —
// happens on one background loop under the server mutex. Connection
// goroutines funnel decoded messages, position updates included, through
// the same mutex: the engine is single-caller.
//
// A report reaches the engine one way: an UpdateBatch frame decoded into
// connection-owned columns, range-checked, and admitted by a single
// IngestShedOldestColumns call (Server.ingestBatch). That frame carries
// fixed-point integers, and Hello and Query — the two client frames with
// float fields — are validated at registration, so no non-finite value
// crosses this boundary.
//
// The layer is built for lossy, partition-prone links (the network the
// paper's mobile CQ system actually runs over): connections carry read
// deadlines kept alive by client heartbeats, a panic in one connection
// handler is isolated to that connection, input-queue overflow sheds
// oldest-first into the same drop accounting THROTLOOP watches instead of
// growing without bound, clients reconnect with exponential backoff and
// deterministic jitter, and a disconnected node degrades to the
// conservative fallback threshold Δ⊢. Every one of those events is
// counted in metrics.NetCounters — degradation here is visible, never
// silent. See DESIGN.md's "Failure model" section.
package netsvc

import (
	"context"
	"math"
	"net"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"lira/internal/admission"
	"lira/internal/basestation"
	"lira/internal/cqserver"
	"lira/internal/engine"
	"lira/internal/geo"
	"lira/internal/metrics"
	"lira/internal/slo"
	"lira/internal/spans"
	"lira/internal/telemetry"
	"lira/internal/wire"
)

// Clock returns the current simulation time in seconds. Deployments use
// wall clock; tests inject accelerated clocks.
type Clock func() float64

// wallBase pins WallClock's origin once at process start. Advancing via
// time.Since rides Go's monotonic clock, so an NTP step (or any
// wall-clock jump) can never move simulation time backwards through
// deadline or adaptation-period math; the Unix-epoch offset keeps
// separate processes (lirad, liranode) on one timebase.
var wallBase = time.Now()
var wallBaseUnix = float64(wallBase.UnixNano()) / 1e9

// WallClock is the default clock: Unix seconds with sub-second
// precision, advanced monotonically from a fixed origin.
func WallClock() float64 { return wallBaseUnix + time.Since(wallBase).Seconds() }

// defaultReadTimeout is the server's per-connection silence bound. It is
// deliberately several multiples of the clients' default heartbeat
// cadence, so only a genuinely dead link trips it.
const defaultReadTimeout = 30 * time.Second

// ServerConfig parameterizes a network server.
type ServerConfig struct {
	// Core configures the embedded mobile CQ server.
	Core cqserver.Config
	// Shards selects the evaluation engine via engine.New (see
	// internal/engine): values above 1 deploy the spatially sharded
	// shard.Server with that many shard cells; 0 and 1 deploy the
	// unsharded cqserver.Server. Query results are byte-identical either
	// way, and so is admission: one input queue of Core.QueueSize.
	Shards int
	// Stations is the base-station layout. Empty selects a single
	// station covering the whole space.
	Stations []basestation.Station
	// Z is the throttle fraction used at each adaptation.
	Z float64
	// AdaptEvery is the adaptation period; zero disables periodic
	// adaptation (Adapt can still be called manually).
	AdaptEvery time.Duration
	// EvalEvery is the continual-query evaluation period; zero disables
	// pushes (queries are still answered once at registration).
	EvalEvery time.Duration
	// DrainPerTick bounds queue draining per background tick; zero means
	// drain fully.
	DrainPerTick int
	// ReadTimeout is the per-connection read deadline: a connection
	// silent for this long is dropped (clients heartbeat at a faster
	// cadence, so only dead links trip it). Zero selects 30s; negative
	// disables deadlines.
	ReadTimeout time.Duration
	// Counters receives degradation accounting; nil allocates a private
	// set (inspect it via Server.Counters).
	Counters *metrics.NetCounters
	// Clock supplies simulation time; nil selects WallClock.
	Clock Clock
	// Telemetry, when non-nil, receives wire-frame counters and a journal
	// record for every degradation event, and is propagated into the
	// embedded CQ server (unless Core.Telemetry is already set). The hub's
	// net-counter bridge is bound to Counters and its clock defaults to
	// the server's Clock.
	Telemetry *telemetry.Hub
	// Admission, when non-nil, enables the health-driven admission
	// controller: once per background tick the server samples queue
	// occupancy (pre-drain), the goroutine census, Evaluate p99, and the
	// last GC pause, and walks the degradation ladder. The controller's
	// Actions and Telemetry default to the server's engine and hub; its
	// z clamp is installed on the engine's control plane.
	Admission *admission.Config
	// AdmissionSample, when non-nil, replaces the built-in health-signal
	// sampler (deterministic chaos tests inject signal traces).
	AdmissionSample func() admission.Signals
	// SLO, when non-nil, enables the burn-rate tracker: once per
	// background tick the server samples each target's indicator and
	// feeds the multi-window windows. Target names select the indicator:
	// "eval_p99" (Evaluate p99 seconds), "inaccuracy" (shed fraction of
	// offered records — the ledger's lost-report proxy for result
	// inaccuracy), "rung" (admission-ladder state ordinal), "queue_frac"
	// (input-queue occupancy), "gc_pause" (last GC pause seconds);
	// unknown names sample 0. The tracker's Telemetry defaults to the
	// server's hub.
	SLO *slo.Config
}

// Server hosts the CQ server and base stations behind a TCP listener.
type Server struct {
	cfg      ServerConfig
	ln       net.Listener
	counters *metrics.NetCounters
	tel      *netTelemetry

	// eng is the evaluation engine. It is single-caller: every call,
	// ingest included, happens under mu.
	eng engine.Engine

	// adm is the degradation ladder (nil unless ServerConfig.Admission is
	// set). Its lock-free methods (AdmitN, ClampZ) gate the ingest paths
	// and the adaptation; Observe runs on the background tick.
	adm *admission.Controller

	// offered/invalid feed the record-conservation ledger (ledger.go):
	// offered counts every update record entering ingestBatch, invalid
	// counts the out-of-range ids discarded at the trust boundary. Always
	// counted (two uncontended atomics per batch) so Ledger works with or
	// without telemetry.
	offered atomic.Int64
	invalid atomic.Int64

	// led holds the lira_ledger_* gauges (nil without a hub); slotr is
	// the optional SLO burn-rate tracker with sloVals its pooled per-tick
	// sample buffer (guarded by mu).
	led     *ledgerTelemetry
	slotr   *slo.Tracker
	sloVals []float64

	mu          sync.Mutex
	deployment  *basestation.Deployment
	frames      [][]byte // cached per-station assignment frames
	nodeConns   map[uint32]*srvConn
	nodeStation map[uint32]int
	queryRegs   []queryReg // registration order, parallel to core queries
	lastAdapt   *cqserver.Adaptation
	closed      bool

	// obsPos/obsSpd are the pooled statistics-observation buffers: one
	// snapshot per background tick reuses them instead of allocating two
	// population-sized slices per tick. Guarded by mu.
	obsPos []geo.Point
	obsSpd []float64

	wg   sync.WaitGroup
	done chan struct{}
}

// netTelemetry holds the deployment layer's pre-resolved metric pointers
// (one registry lookup at startup, one atomic per frame afterwards). Nil
// when no Hub is configured.
type netTelemetry struct {
	hub *telemetry.Hub

	readHello *telemetry.Counter // lira_frames_read_hello_total
	readBatch *telemetry.Counter // lira_frames_read_update_batch_total
	readQuery *telemetry.Counter // lira_frames_read_query_total
	readPing  *telemetry.Counter // lira_frames_read_ping_total
	readPong  *telemetry.Counter // lira_frames_read_pong_total
	readBad   *telemetry.Counter // lira_frames_read_bad_total

	sentAssignment *telemetry.Counter // lira_frames_sent_assignment_total
	sentResult     *telemetry.Counter // lira_frames_sent_result_total

	connectedNodes *telemetry.Gauge // lira_connected_nodes

	batchSize     *telemetry.Histogram // lira_ingest_batch_size
	decodeSeconds *telemetry.Histogram // lira_batch_decode_seconds
	gcPause       *telemetry.Gauge     // lira_gc_pause_seconds

	// evalSeconds is the engines' Evaluate-latency histogram (shared by
	// registry name); the admission sampler reads its p99 in-process.
	evalSeconds *telemetry.Histogram // lira_evaluate_seconds
}

func newNetTelemetry(hub *telemetry.Hub) *netTelemetry {
	if hub == nil {
		return nil
	}
	r := hub.Registry
	return &netTelemetry{
		hub:            hub,
		readHello:      r.Counter("lira_frames_read_hello_total"),
		readBatch:      r.Counter("lira_frames_read_update_batch_total"),
		readQuery:      r.Counter("lira_frames_read_query_total"),
		readPing:       r.Counter("lira_frames_read_ping_total"),
		readPong:       r.Counter("lira_frames_read_pong_total"),
		readBad:        r.Counter("lira_frames_read_bad_total"),
		sentAssignment: r.Counter("lira_frames_sent_assignment_total"),
		sentResult:     r.Counter("lira_frames_sent_result_total"),
		connectedNodes: r.Gauge("lira_connected_nodes"),
		batchSize:      r.Histogram("lira_ingest_batch_size", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}),
		decodeSeconds:  r.Histogram("lira_batch_decode_seconds", nil),
		gcPause:        r.Gauge("lira_gc_pause_seconds"),
		evalSeconds:    r.Histogram("lira_evaluate_seconds", nil),
	}
}

// spans returns the hub's span tracer (nil without a hub or tracer);
// the returned tracer and the Ctx values it hands out are nil-safe, so
// call sites chain t.spans().Start(...) unconditionally.
func (t *netTelemetry) spans() *spans.Tracer {
	if t == nil {
		return nil
	}
	return t.hub.Spans()
}

// recordNet appends one degradation record to the journal (no-op without
// a hub).
func (t *netTelemetry) recordNet(event, peer string, node int64, detail string) {
	if t == nil {
		return
	}
	t.hub.Record(telemetry.Record{
		Kind: telemetry.KindNet,
		Net:  &telemetry.NetEvent{Event: event, Peer: peer, Node: node, Detail: detail},
	})
}

// queryReg ties one registered continual query to the connection that
// owns it and the id the client chose for it. Result frames carry the
// client's id, so a reconnecting subscriber that re-registers under its
// original ids resumes seamlessly; when the owning connection drops, its
// registrations are removed so abandoned queries stop consuming
// evaluation work.
type queryReg struct {
	owner    *srvConn
	clientID uint32
	rect     geo.Rect
}

type srvConn struct {
	c  net.Conn
	mu sync.Mutex // serializes frame writes
}

func (sc *srvConn) send(frame []byte) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return wire.WriteFrame(sc.c, frame)
}

// Listen starts a server on addr (e.g. "127.0.0.1:0").
func Listen(addr string, cfg ServerConfig) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s, err := Serve(ln, cfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	return s, nil
}

// Serve starts a server on an existing listener. Chaos tests use it to
// interpose a fault-injecting listener; Listen is the plain-TCP wrapper.
func Serve(ln net.Listener, cfg ServerConfig) (*Server, error) {
	if cfg.Z <= 0 || cfg.Z > 1 {
		cfg.Z = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = WallClock
	}
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = defaultReadTimeout
	}
	if cfg.Counters == nil {
		cfg.Counters = &metrics.NetCounters{}
	}
	if cfg.Telemetry != nil {
		clock := cfg.Clock
		cfg.Telemetry.EnsureClock(func() float64 { return clock() })
		cfg.Telemetry.BindNetCounters(cfg.Counters)
		if cfg.Core.Telemetry == nil {
			cfg.Core.Telemetry = cfg.Telemetry
		}
	}
	eng, err := engine.New(cfg.Core, cfg.Shards)
	if err != nil {
		return nil, err
	}
	if len(cfg.Stations) == 0 {
		space := cfg.Core.Space
		cfg.Stations = []basestation.Station{{
			ID:     0,
			Center: space.Center(),
			Radius: space.Width() + space.Height(),
		}}
	}
	s := &Server{
		cfg:         cfg,
		ln:          ln,
		counters:    cfg.Counters,
		tel:         newNetTelemetry(cfg.Telemetry),
		eng:         eng,
		nodeConns:   make(map[uint32]*srvConn),
		nodeStation: make(map[uint32]int),
		done:        make(chan struct{}),
	}
	if cfg.Admission != nil {
		ac := *cfg.Admission
		if ac.Actions == nil {
			ac.Actions = eng
		}
		if ac.Telemetry == nil {
			ac.Telemetry = cfg.Telemetry
		}
		adm, err := admission.New(ac)
		if err != nil {
			return nil, err
		}
		s.adm = adm
		// The ladder's z cap applies inside the control plane, so manual
		// Adapt calls, the periodic re-adaptation, and AdaptAuto all spend
		// the health-clamped budget — and journals record the z actually
		// used.
		eng.ControlPlane().SetZClamp(adm.ClampZ)
	}
	s.led = newLedgerTelemetry(cfg.Telemetry)
	if cfg.SLO != nil {
		sc := *cfg.SLO
		if sc.Telemetry == nil {
			sc.Telemetry = cfg.Telemetry
		}
		tr, err := slo.New(sc)
		if err != nil {
			return nil, err
		}
		s.slotr = tr
		s.sloVals = make([]float64, len(sc.Targets))
	}
	if err := s.adaptLocked(); err != nil {
		return nil, err
	}
	s.wg.Add(2)
	go s.acceptLoop()
	go s.backgroundLoop()
	return s, nil
}

// Addr returns the listener address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Counters exposes the server's degradation counters.
func (s *Server) Counters() *metrics.NetCounters { return s.counters }

// Close stops the server, disconnects every client, and drains the
// in-flight frames still queued: updates already accepted are applied to
// the motion table before Close returns, so a graceful shutdown loses
// nothing it acknowledged.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	conns := make([]*srvConn, 0, len(s.nodeConns))
	seen := map[*srvConn]bool{}
	for _, c := range s.nodeConns {
		if !seen[c] {
			conns = append(conns, c)
			seen[c] = true
		}
	}
	for _, r := range s.queryRegs {
		if !seen[r.owner] {
			conns = append(conns, r.owner)
			seen[r.owner] = true
		}
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.c.Close()
	}
	s.wg.Wait()
	// All connection goroutines and the background loop are gone: drain
	// whatever the input queue still holds.
	s.eng.Drain(-1)
	return err
}

// Core exposes the evaluation engine for inspection (tests, metrics).
// Callers must not mutate it concurrently with a running server.
func (s *Server) Core() engine.Engine { return s.eng }

// Sharded returns the shard count the server was deployed with: 1 for
// the unsharded engine, K for the sharded one.
func (s *Server) Sharded() int {
	if s.cfg.Shards > 1 {
		return s.cfg.Shards
	}
	return 1
}

// Adapt re-runs the LIRA adaptation at the configured throttle fraction
// and broadcasts fresh assignments to every connected node.
func (s *Server) Adapt() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.adaptLocked()
}

func (s *Server) adaptLocked() error {
	ad, err := s.eng.Adapt(s.cfg.Z)
	if err != nil {
		return err
	}
	deploy, err := basestation.NewDeployment(s.cfg.Stations, ad.Partitioning, ad.Deltas)
	if err != nil {
		return err
	}
	s.lastAdapt = ad
	s.deployment = deploy
	s.frames = make([][]byte, len(deploy.Assignments))
	for i, a := range deploy.Assignments {
		s.frames[i] = assignmentFrame(uint32(i), a)
	}
	// Rebroadcast to camped nodes.
	for id, st := range s.nodeStation {
		if conn, ok := s.nodeConns[id]; ok && st >= 0 && st < len(s.frames) {
			frame := s.frames[st]
			if s.tel != nil {
				s.tel.sentAssignment.Inc()
			}
			go conn.send(frame) // off the lock; per-conn mutex serializes
		}
	}
	return nil
}

func assignmentFrame(station uint32, a *basestation.Assignment) []byte {
	wa := wire.Assignment{Station: station, DefaultDelta: a.DefaultDelta,
		Entries: make([]wire.AssignmentEntry, 0, len(a.Regions))}
	for i, r := range a.Regions {
		wa.Entries = append(wa.Entries, wire.EntryFromRect(r, a.Deltas[i]))
	}
	return wire.AppendAssignment(nil, wa)
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go s.handleConn(&srvConn{c: c})
	}
}

func (s *Server) handleConn(sc *srvConn) {
	var nodeID uint32
	hasNode := false
	detail := "read" // why the connection ended, for the journal
	// Per-connection isolation: a panic while handling one client's
	// frames (a decode edge case, a handler bug) closes that connection
	// only — the server, its other connections, and the background loop
	// keep running.
	defer func() {
		event := "disconnect"
		if r := recover(); r != nil {
			s.counters.Panics.Add(1)
			event, detail = "panic", "recovered"
		}
		sc.c.Close()
		s.dropConn(sc, nodeID, hasNode)
		peer, node := "conn", int64(-1)
		if hasNode {
			peer, node = "node", int64(nodeID)
		}
		s.tel.recordNet(event, peer, node, detail)
		s.wg.Done()
	}()
	// One FrameReader and one batch scratch per connection: the read loop's
	// steady state (batch frames from a camped node) touches no allocator
	// at all — headers, payloads, and decoded columns all live in
	// connection-owned buffers grown once to their high-water size.
	fr := wire.NewFrameReader(sc.c)
	var batch wire.UpdateBatch
	for {
		if s.cfg.ReadTimeout > 0 {
			sc.c.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		}
		typ, payload, err := fr.Next()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				s.counters.DeadlineTrips.Add(1)
				detail = "deadline"
			}
			return
		}
		switch typ {
		case wire.TypeHello:
			h, err := wire.DecodeHello(payload)
			if err != nil {
				detail = "decode"
				return
			}
			if s.tel != nil {
				s.tel.readHello.Inc()
			}
			if s.registerNode(sc, h) {
				nodeID, hasNode = h.Node, true
			}
		case wire.TypeUpdateBatch:
			root := s.tel.spans().Start("update_batch", "netsvc")
			var start time.Time
			if s.tel != nil {
				start = time.Now()
			}
			sp := root.Child("decode", "netsvc")
			err := wire.DecodeUpdateBatchInto(&batch, payload)
			sp.End()
			if err != nil {
				root.Str("error", "decode").End()
				detail = "decode"
				return
			}
			if s.tel != nil {
				s.tel.decodeSeconds.Observe(time.Since(start).Seconds())
				s.tel.readBatch.Inc()
				s.tel.batchSize.Observe(float64(batch.Len()))
			}
			s.ingestBatch(sc, &batch, root)
			root.Num("records", float64(batch.Len())).End()
		case wire.TypeQuery:
			q, err := wire.DecodeQuery(payload)
			if err != nil {
				detail = "decode"
				return
			}
			if s.tel != nil {
				s.tel.readQuery.Inc()
			}
			s.registerQuery(sc, q)
		case wire.TypePing:
			p, err := wire.DecodePing(payload)
			if err != nil {
				detail = "decode"
				return
			}
			if s.tel != nil {
				s.tel.readPing.Inc()
			}
			sc.send(wire.AppendPong(nil, wire.Pong{Token: p.Token}))
		case wire.TypePong:
			// Tolerated: keeps the read deadline fresh.
			if s.tel != nil {
				s.tel.readPong.Inc()
			}
		default:
			if s.tel != nil {
				s.tel.readBad.Inc()
			}
			detail = "protocol"
			return // protocol violation: drop the connection
		}
	}
}

// dropConn forgets everything a dead connection owned: its node
// registration (unless a reconnect already replaced it) and its query
// registrations, so abandoned queries stop consuming evaluation work.
func (s *Server) dropConn(sc *srvConn, nodeID uint32, hasNode bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if hasNode && s.nodeConns[nodeID] == sc {
		delete(s.nodeConns, nodeID)
		delete(s.nodeStation, nodeID)
		if s.tel != nil {
			s.tel.connectedNodes.Set(float64(len(s.nodeConns)))
		}
	}
	kept := s.queryRegs[:0]
	removed := false
	for _, r := range s.queryRegs {
		if r.owner == sc {
			removed = true
			continue
		}
		kept = append(kept, r)
	}
	s.queryRegs = kept
	if removed {
		s.syncQueriesLocked()
	}
}

// syncQueriesLocked rebuilds the core's query set from the live
// registrations (index-parallel to queryRegs).
func (s *Server) syncQueriesLocked() {
	qs := make([]geo.Rect, len(s.queryRegs))
	for i, r := range s.queryRegs {
		qs[i] = r.rect
	}
	s.eng.RegisterQueries(qs)
}

// rejectFrame counts and journals a well-formed frame whose content the
// server refuses to act on (a non-finite coordinate, an inverted rect).
// The connection stays up: everything it registered before is untouched.
func (s *Server) rejectFrame(peer string, node int64, detail string) {
	if s.tel != nil {
		s.tel.readBad.Inc()
	}
	s.tel.recordNet("reject", peer, node, detail)
}

// finite reports whether every value is a finite float (no NaN, no ±Inf).
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// registerNode camps a node on the station covering its announced
// position and sends it that station's assignment. It reports whether
// the hello was accepted; a refused hello changes no state.
func (s *Server) registerNode(sc *srvConn, h wire.Hello) bool {
	if int(h.Node) >= s.cfg.Core.Nodes {
		return false // out-of-range id: corrupted or hostile handshake
	}
	if !finite(h.Pos.X, h.Pos.Y) {
		s.rejectFrame("node", int64(h.Node), "hello-position")
		return false
	}
	s.mu.Lock()
	s.nodeConns[h.Node] = sc
	st := basestation.StationFor(s.cfg.Stations, h.Pos)
	s.nodeStation[h.Node] = st
	var frame []byte
	if st >= 0 && st < len(s.frames) {
		frame = s.frames[st]
	}
	if s.tel != nil {
		s.tel.connectedNodes.Set(float64(len(s.nodeConns)))
	}
	s.mu.Unlock()
	if frame != nil {
		if s.tel != nil {
			s.tel.sentAssignment.Inc()
		}
		sc.send(frame)
	}
	return true
}

// ingestBatch admits the records of a decoded batch frame — the one way a
// report reaches the engine. A batch of n records counts exactly n
// arrivals, so the λ estimate THROTLOOP adapts against is independent of
// how clients frame their updates. Admission and the hand-off checks for
// all records share one mutex hold, and hand-off frames are collected
// lazily: a batch from a camped, in-coverage node — the steady state —
// allocates nothing here.
func (s *Server) ingestBatch(sc *srvConn, b *wire.UpdateBatch, root spans.Ctx) {
	n := b.Len()
	// Conservation ledger: every record of the batch is offered, whatever
	// its fate (pre-shed, invalid id, queue shed, applied, queued).
	s.offered.Add(int64(n))
	// Degradation ladder: at the shed and critical rungs only a fraction
	// of offered records is admitted, oldest-first — the batch's leading
	// (stalest) records are rejected before they touch the queue, and the
	// freshest suffix survives. Pre-shed records never count as queue
	// arrivals, so λ measures the load the system actually accepted.
	off := 0
	if s.adm != nil {
		sp := root.Child("admit", "netsvc")
		admit := s.adm.AdmitN(n)
		sp.Num("offered", float64(n)).Num("admitted", float64(admit)).End()
		if admit == 0 {
			return
		}
		off = n - admit
	}
	// Trust boundary: an out-of-range id must be discarded here, not crash
	// the drain into the fixed-size motion table. Compact the admitted
	// suffix of the connection-owned columns in place, keeping order;
	// while every id is in range (the steady state) end tracks i and the
	// scan writes nothing.
	end := off
	for i := off; i < n; i++ {
		if int(b.Node[i]) >= s.cfg.Core.Nodes {
			continue
		}
		if end != i {
			b.Node[end] = b.Node[i]
			b.X[end], b.Y[end] = b.X[i], b.Y[i]
			b.VX[end], b.VY[end] = b.VX[i], b.VY[i]
			b.Time[end] = b.Time[i]
		}
		end++
	}
	invalid := n - end
	var handoffs [][]byte
	s.mu.Lock()
	sp := root.Child("ingest", "netsvc")
	// Bounded admission with graceful overflow: a saturated queue sheds its
	// oldest reports to admit the freshest. A shed counts as a drop in the
	// queue's accounting — the λ-side signal THROTLOOP's utilization
	// estimate is built from — so sustained overflow shows up as overload,
	// not as an OOM; each admitted record counts exactly one arrival.
	shed := s.eng.IngestShedOldestColumns(b.Node[off:end], b.X[off:end], b.Y[off:end], b.VX[off:end], b.VY[off:end], b.Time[off:end])
	sp.Num("shed", float64(shed)).Num("invalid", float64(invalid)).End()
	for i := off; i < end; i++ {
		if frame := s.handoffLocked(b.Node[i], geo.Point{X: b.X[i], Y: b.Y[i]}); frame != nil {
			handoffs = append(handoffs, frame)
		}
	}
	s.mu.Unlock()
	if invalid > 0 {
		s.invalid.Add(int64(invalid))
	}
	if shed > 0 {
		s.counters.ShedFrames.Add(int64(shed))
	}
	for _, frame := range handoffs {
		if s.tel != nil {
			s.tel.sentAssignment.Inc()
		}
		sc.send(frame)
	}
}

// handoffLocked checks whether a node's report moved it outside its
// station's coverage and, if so, reassigns it and returns the new
// station's subset frame. Callers hold s.mu.
func (s *Server) handoffLocked(node uint32, pos geo.Point) []byte {
	st, known := s.nodeStation[node]
	if !known {
		return nil
	}
	if st >= 0 && s.cfg.Stations[st].Covers(pos) {
		return nil
	}
	if next := basestation.StationFor(s.cfg.Stations, pos); next != st && next >= 0 {
		s.nodeStation[node] = next
		if next < len(s.frames) {
			return s.frames[next]
		}
	}
	return nil
}

func (s *Server) registerQuery(sc *srvConn, q wire.Query) {
	// A rect with a NaN or ±Inf edge, or one whose edges are out of order,
	// is refused before it can join the query set every tick evaluates.
	if r := q.Rect; !finite(r.MinX, r.MinY, r.MaxX, r.MaxY) || r.MinX > r.MaxX || r.MinY > r.MaxY {
		s.rejectFrame("query", -1, "query-rect")
		return
	}
	s.mu.Lock()
	idx := -1
	for i, r := range s.queryRegs {
		if r.owner == sc && r.clientID == q.ID {
			idx = i // idempotent re-registration: replace the rect
			break
		}
	}
	if idx >= 0 {
		s.queryRegs[idx].rect = q.Rect
	} else {
		idx = len(s.queryRegs)
		s.queryRegs = append(s.queryRegs, queryReg{owner: sc, clientID: q.ID, rect: q.Rect})
	}
	s.syncQueriesLocked()
	now := s.cfg.Clock()
	s.eng.Drain(-1)
	results := s.eng.Evaluate(now)
	frame, _ := appendResultFrame(nil, nil, q.ID, results[idx])
	s.mu.Unlock()
	if s.tel != nil {
		s.tel.sentResult.Inc()
	}
	sc.send(frame)
}

// appendResultFrame appends the Result frame for a query's member ids to
// dst. ids is the scratch the ids are narrowed through; both slices come
// back for reuse, so a caller that keeps them encodes without allocating.
func appendResultFrame(dst []byte, ids []uint32, id uint32, nodes []int) ([]byte, []uint32) {
	ids = ids[:0]
	for _, n := range nodes {
		ids = append(ids, uint32(n))
	}
	return wire.AppendResult(dst, wire.Result{ID: id, Nodes: ids}), ids
}

func (s *Server) backgroundLoop() {
	defer s.wg.Done()
	// Profiler attribution: the drain/adapt/evaluate loop is the server's
	// hot goroutine; label it once so CPU and goroutine profiles name it
	// (the shard workers carry lira_phase=predict/scan the same way).
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("lira_phase", "drain")))
	tick := s.cfg.EvalEvery
	if tick == 0 {
		tick = 100 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	var lastAdapt time.Time
	var mem runtime.MemStats
	ticks := 0
	// One tick's result frames are encoded back to back into a buffer the
	// loop owns and are written out before the next tick reuses it, so the
	// steady-state push allocates nothing.
	type push struct {
		sc         *srvConn
		start, end int // the frame is frames[start:end]
	}
	var (
		pushes []push
		frames []byte
		ids    []uint32
	)
	for {
		select {
		case <-s.done:
			return
		case <-ticker.C:
		}
		// GC-pause visibility: surface the most recent stop-the-world pause
		// on /metrics so a saturation run can correlate latency spikes with
		// collections. ReadMemStats briefly stops the world itself, so it
		// runs on every 10th tick, off the server mutex.
		if ticks++; s.tel != nil && ticks%10 == 1 {
			runtime.ReadMemStats(&mem)
			if mem.NumGC > 0 {
				s.tel.gcPause.Set(float64(mem.PauseNs[(mem.NumGC+255)%256]) / 1e9)
			}
		}
		now := s.cfg.Clock()
		root := s.tel.spans().Start("tick", "netsvc")
		s.mu.Lock()
		// Admission tick: sample health BEFORE draining — pre-drain
		// occupancy is the honest backlog signal (post-drain it is ~0 by
		// construction) — and walk the degradation ladder. A rung change
		// re-runs the adaptation immediately so nodes hear the new clamped
		// z this tick, not an AdaptEvery later. The sample runs under the
		// mutex: both engines' one queue.Bounded is serialised by s.mu.
		rungChanged := false
		if s.adm != nil {
			sp := root.Child("admission_observe", "netsvc")
			before := s.adm.State()
			after := s.adm.Observe(s.sampleSignals())
			rungChanged = after != before
			sp.Num("rung", float64(after)).End()
		}
		limit := s.cfg.DrainPerTick
		if limit == 0 {
			limit = -1
		}
		sp := root.Child("drain", "netsvc")
		drained := s.eng.Drain(limit)
		sp.Num("applied", float64(drained)).End()
		// Refresh the statistics grid from the server's own beliefs (the
		// paper's "explicitly maintained by processing position updates"
		// mode): predicted positions and reported speeds.
		sp = root.Child("stats", "netsvc")
		s.observeStatsLocked(now)
		sp.End()
		if rungChanged || (s.cfg.AdaptEvery > 0 && time.Since(lastAdapt) >= s.cfg.AdaptEvery) {
			lastAdapt = time.Now()
			// adaptLocked's engine Adapt opens its own "adapt" root span
			// (the control plane owns that trace); no child here to avoid
			// double-covering it.
			s.adaptLocked()
		}
		pushes, frames = pushes[:0], frames[:0]
		if s.cfg.EvalEvery > 0 && len(s.queryRegs) > 0 {
			sp = root.Child("evaluate", "netsvc")
			results := s.eng.Evaluate(now)
			sp.Num("queries", float64(len(results))).End()
			for qi, reg := range s.queryRegs {
				start := len(frames)
				frames, ids = appendResultFrame(frames, ids, reg.clientID, results[qi])
				pushes = append(pushes, push{reg.owner, start, len(frames)})
			}
		}
		// Conservation ledger + SLO burn windows, both on the coherent
		// under-mutex view of this tick.
		s.ledgerCheckLocked()
		s.observeSLOLocked()
		s.mu.Unlock()
		root.End()
		for _, p := range pushes {
			if s.tel != nil {
				s.tel.sentResult.Inc()
			}
			p.sc.send(frames[p.start:p.end])
		}
		clear(pushes) // drop the connection pointers until the next tick
	}
}

// sampleSignals assembles the health vector the admission ladder walks
// on: input-queue occupancy (before this tick's drain), the process-wide
// goroutine census, the Evaluate p99 read from the shared latency
// histogram, and the most recent GC pause. Tests override the whole
// sampler via ServerConfig.AdmissionSample for deterministic traces.
// Callers hold s.mu (it serialises the queue.Bounded both engines share).
func (s *Server) sampleSignals() admission.Signals {
	if s.cfg.AdmissionSample != nil {
		return s.cfg.AdmissionSample()
	}
	var sig admission.Signals
	if c := s.eng.QueueCap(); c > 0 {
		sig.QueueFrac = float64(s.eng.QueueLen()) / float64(c)
	}
	sig.Goroutines = float64(runtime.NumGoroutine())
	if s.tel != nil {
		sig.EvalP99 = s.tel.evalSeconds.Quantile(0.99)
		sig.GCPause = s.tel.gcPause.Value()
	}
	return sig
}

// Admission exposes the degradation-ladder controller (nil when admission
// control is not configured).
func (s *Server) Admission() *admission.Controller { return s.adm }

// observeSLOLocked samples each configured SLO target's indicator (by
// target name — see ServerConfig.SLO) and feeds the burn-rate windows.
// Runs once per background tick under s.mu; no-op without a tracker.
func (s *Server) observeSLOLocked() {
	if s.slotr == nil {
		return
	}
	for i, t := range s.cfg.SLO.Targets {
		var v float64
		switch t.Name {
		case "eval_p99":
			if s.tel != nil {
				v = s.tel.evalSeconds.Quantile(0.99)
			}
		case "inaccuracy":
			// Lost-report fraction from the conservation ledger: the share
			// of offered records that will never reach the motion table
			// (pre-shed, invalid, or shed from the queue). Reports the
			// engine drops are exactly the ones whose staleness the paper's
			// inaccuracy bound pays for.
			lv := s.ledgerView()
			if lv.Offered > 0 {
				v = float64(lv.Invalid+lv.Preshed+lv.Ringshed) / float64(lv.Offered)
			}
		case "rung":
			if s.adm != nil {
				v = float64(s.adm.State())
			}
		case "queue_frac":
			if c := s.eng.QueueCap(); c > 0 {
				v = float64(s.eng.QueueLen()) / float64(c)
			}
		case "gc_pause":
			if s.tel != nil {
				v = s.tel.gcPause.Value()
			}
		}
		s.sloVals[i] = v
	}
	s.slotr.Observe(s.sloVals)
}

// SLO exposes the burn-rate tracker (nil when no SLOs are configured).
func (s *Server) SLO() *slo.Tracker { return s.slotr }

// RegionView is one shedding region in an Introspection: its area, the
// statistics GRIDREDUCE aggregated for it, and its assigned throttler Δᵢ.
type RegionView struct {
	Area  geo.Rect `json:"area"`
	N     float64  `json:"n"`
	M     float64  `json:"m"`
	S     float64  `json:"s"`
	Delta float64  `json:"delta"`
}

// Introspection is a point-in-time view of the shedding pipeline, shaped
// for the /debug/lira endpoint: the current throttle fraction, the region
// partitioning with its Δᵢ table, and the serving state around it.
type Introspection struct {
	Now            float64             `json:"now"`
	Z              float64             `json:"z"`
	BudgetMet      bool                `json:"budget_met"`
	Regions        []RegionView        `json:"regions"`
	ConnectedNodes int                 `json:"connected_nodes"`
	Queries        int                 `json:"queries"`
	Shards         int                 `json:"shards"`
	QueueLen       int                 `json:"queue_len"`
	QueueCap       int                 `json:"queue_cap"`
	Applied        int64               `json:"updates_applied"`
	Net            metrics.NetSnapshot `json:"net"`
	Admission      *admission.View     `json:"admission,omitempty"`
	Ledger         LedgerView          `json:"ledger"`
	SLO            []slo.View          `json:"slo,omitempty"`
}

// Introspect returns the current pipeline state under the server mutex,
// so the region list and Δᵢ table come from the same adaptation.
func (s *Server) Introspect() Introspection {
	s.mu.Lock()
	defer s.mu.Unlock()
	in := Introspection{
		Now:            s.cfg.Clock(),
		Z:              s.cfg.Z,
		ConnectedNodes: len(s.nodeConns),
		Queries:        len(s.queryRegs),
		Shards:         s.Sharded(),
		QueueLen:       s.eng.QueueLen(),
		QueueCap:       s.eng.QueueCap(),
		Applied:        s.eng.Applied(),
		Net:            s.counters.Snapshot(),
		Ledger:         s.ledgerView(),
		SLO:            s.slotr.Views(),
	}
	if s.adm != nil {
		v := s.adm.View()
		in.Admission = &v
	}
	if ad := s.lastAdapt; ad != nil {
		in.Z = ad.Z
		in.BudgetMet = ad.BudgetMet
		in.Regions = make([]RegionView, len(ad.Partitioning.Regions))
		for i, r := range ad.Partitioning.Regions {
			in.Regions[i] = RegionView{Area: r.Area, N: r.N, M: r.M, S: r.S, Delta: ad.Deltas[i]}
		}
	}
	return in
}

// observeStatsLocked snapshots the motion table into the statistics grid.
// The snapshot buffers are pooled on the server (neither engine retains
// them past the call), so a steady-state tick allocates nothing here.
func (s *Server) observeStatsLocked(now float64) {
	table := s.eng.Table()
	n := table.Len()
	s.obsPos, s.obsSpd = s.obsPos[:0], s.obsSpd[:0]
	for i := 0; i < n; i++ {
		rep, ok := table.Report(i)
		if !ok {
			continue
		}
		s.obsPos = append(s.obsPos, s.cfg.Core.Space.ClampPoint(rep.Predict(now)))
		s.obsSpd = append(s.obsSpd, rep.Vel.Len())
	}
	if len(s.obsPos) > 0 {
		s.eng.ObserveStatistics(s.obsPos, s.obsSpd)
	}
}
