package netsvc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime/pprof"
	"sync"
	"time"

	"lira/internal/basestation"
	"lira/internal/geo"
	"lira/internal/metrics"
	"lira/internal/mobilenode"
	"lira/internal/motion"
	"lira/internal/rng"
	"lira/internal/telemetry"
	"lira/internal/wire"
)

// Dialer opens the transport to a server. The default dials TCP; chaos
// tests substitute a faultnet fabric.
type Dialer func(addr string) (net.Conn, error)

func defaultDialer(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// ErrClosed is returned by operations on a client after Close.
var ErrClosed = errors.New("netsvc: client closed")

// Client-side fault-tolerance defaults. Heartbeats keep read deadlines
// from tripping on healthy-but-idle links; the backoff bounds how hard a
// reconnecting fleet hammers a recovering server.
const (
	defaultHeartbeat   = 1 * time.Second
	defaultWriteExpiry = 5 * time.Second
	defaultBackoffBase = 50 * time.Millisecond
	defaultBackoffMax  = 2 * time.Second
)

// Client-side batching: the pending batch is flushed when it reaches
// batchSize records or when batchFlushEvery elapses, whichever comes
// first. The flush interval bounds the extra latency batching adds to any
// single report.
const (
	batchSize       = 64
	batchFlushEvery = 5 * time.Millisecond
)

// linkConfig is the fault-tolerance parameter set shared by both client
// kinds.
type linkConfig struct {
	dialer Dialer
	// heartbeatEvery is the ping cadence; <0 disables heartbeats.
	heartbeatEvery time.Duration
	// readTimeout bounds silence on the link; <0 disables.
	readTimeout time.Duration
	// writeTimeout bounds one frame write; <0 disables.
	writeTimeout time.Duration
	// backoffBase/backoffMax bound the exponential reconnect backoff.
	backoffBase, backoffMax time.Duration
	// maxAttempts bounds consecutive failed reconnect dials before the
	// client gives up; 0 means retry until Close.
	maxAttempts int
	// reconnect is false when the client should die on the first link
	// error (the pre-fault-tolerance behavior, still used by tests that
	// assert on terminal errors).
	reconnect bool
	counters  *metrics.NetCounters
	seed      uint64
	// hub, peer, node identify this link in the telemetry decision
	// journal; hub nil disables journaling.
	hub  *telemetry.Hub
	peer string
	node int64
	// keepalive builds the frames for one heartbeat tick. The default is
	// a bare Ping; clients substitute state-aware keepalives (a node still
	// waiting for its assignment re-announces Hello, a query client
	// periodically re-sends its idempotent registrations) so that state
	// silently lost on a faulty link is re-established without waiting
	// for the next full reconnect.
	keepalive func(token uint32) [][]byte
}

func (lc *linkConfig) fill() {
	if lc.dialer == nil {
		lc.dialer = defaultDialer
	}
	if lc.heartbeatEvery == 0 {
		lc.heartbeatEvery = defaultHeartbeat
	}
	if lc.readTimeout == 0 {
		if lc.heartbeatEvery > 0 {
			lc.readTimeout = 4 * lc.heartbeatEvery
		} else {
			lc.readTimeout = -1 // no heartbeats to keep an idle link alive
		}
	}
	if lc.writeTimeout == 0 {
		lc.writeTimeout = defaultWriteExpiry
	}
	if lc.backoffBase <= 0 {
		lc.backoffBase = defaultBackoffBase
	}
	if lc.backoffMax < lc.backoffBase {
		lc.backoffMax = defaultBackoffMax
	}
	if lc.backoffMax < lc.backoffBase {
		lc.backoffMax = lc.backoffBase
	}
	if lc.counters == nil {
		lc.counters = &metrics.NetCounters{}
	}
	if lc.keepalive == nil {
		lc.keepalive = func(token uint32) [][]byte {
			return [][]byte{wire.AppendPing(nil, wire.Ping{Token: token})}
		}
	}
}

// recordNet journals one degradation event for this link (no-op without
// a hub).
func (lc *linkConfig) recordNet(event, detail string) {
	if lc.hub == nil {
		return
	}
	lc.hub.Record(telemetry.Record{
		Kind: telemetry.KindNet,
		Net:  &telemetry.NetEvent{Event: event, Peer: lc.peer, Node: lc.node, Detail: detail},
	})
}

// backoffDelay returns the delay before reconnect attempt (1-based):
// exponential growth capped at backoffMax, with deterministic jitter in
// the upper half of the window so a fleet sharing a fault does not
// reconnect in lockstep — but a fleet sharing a seed replays the exact
// same schedule.
func (lc *linkConfig) backoffDelay(r *rng.Rand, attempt int) time.Duration {
	d := lc.backoffBase
	for i := 1; i < attempt && d < lc.backoffMax; i++ {
		d *= 2
	}
	if d > lc.backoffMax {
		d = lc.backoffMax
	}
	half := d / 2
	return half + time.Duration(r.Float64()*float64(half))
}

// link is the shared connection state machine: one current transport,
// the most recent link error, and the write path with deadlines.
type link struct {
	cfg linkConfig

	mu         sync.Mutex
	conn       net.Conn
	linkErr    error // most recent link failure; nil while healthy
	closed     bool
	reconnects int64

	wmu      sync.Mutex // serializes frame writes on the current transport
	closedCh chan struct{}
	backoff  *rng.Rand
}

func newLink(cfg linkConfig, conn net.Conn) *link {
	return &link{
		cfg:      cfg,
		conn:     conn,
		closedCh: make(chan struct{}),
		backoff:  rng.New(cfg.seed).Split(0x6c696e6b), // "link"
	}
}

func (l *link) isClosed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

// current returns the live transport, or nil while disconnected.
func (l *link) current() net.Conn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conn
}

// send writes one frame on the current transport. A write failure closes
// the transport (waking the read loop, which drives reconnection) and is
// returned to the caller.
func (l *link) send(frame []byte) error {
	l.mu.Lock()
	conn := l.conn
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if conn == nil {
		return errDisconnected
	}
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if l.cfg.writeTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(l.cfg.writeTimeout))
	}
	if err := wire.WriteFrame(conn, frame); err != nil {
		conn.Close()
		return err
	}
	return nil
}

var errDisconnected = errors.New("netsvc: link down, reconnecting")

// lost records a link failure and clears the transport. It returns false
// when the client was closed (no reconnection should follow).
func (l *link) lost(err error) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	l.conn = nil
	l.linkErr = err
	return true
}

// reconnect runs the backoff → dial → handshake cycle until it installs
// a fresh transport or the client closes/gives up. handshake re-announces
// the client's state on the new transport before it goes live.
func (l *link) reconnect(addr string, handshake func(net.Conn) error) (net.Conn, bool) {
	for attempt := 1; ; attempt++ {
		if l.cfg.maxAttempts > 0 && attempt > l.cfg.maxAttempts {
			l.mu.Lock()
			l.linkErr = fmt.Errorf("netsvc: gave up after %d reconnect attempts: %w", l.cfg.maxAttempts, l.linkErr)
			l.mu.Unlock()
			l.cfg.recordNet("give-up", "max-attempts")
			return nil, false
		}
		select {
		case <-l.closedCh:
			return nil, false
		case <-time.After(l.cfg.backoffDelay(l.backoff, attempt)):
		}
		conn, err := l.cfg.dialer(addr)
		if err != nil {
			l.lost(err)
			continue
		}
		if err := handshake(conn); err != nil {
			conn.Close()
			l.lost(err)
			continue
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			conn.Close()
			return nil, false
		}
		l.conn = conn
		l.linkErr = nil
		l.reconnects++
		l.mu.Unlock()
		l.cfg.counters.Reconnects.Add(1)
		l.cfg.recordNet("reconnect", "")
		return conn, true
	}
}

// heartbeatLoop pings the server at the configured cadence so both ends'
// read deadlines see traffic on a healthy link. Send failures are left
// to the read loop to diagnose.
func (l *link) heartbeatLoop() {
	if l.cfg.heartbeatEvery <= 0 {
		return
	}
	ticker := time.NewTicker(l.cfg.heartbeatEvery)
	defer ticker.Stop()
	var token uint32
	for {
		select {
		case <-l.closedCh:
			return
		case <-ticker.C:
			token++
			sent := true
			for _, frame := range l.cfg.keepalive(token) {
				if l.send(frame) != nil {
					sent = false
					break
				}
			}
			if sent {
				l.cfg.counters.Heartbeats.Add(1)
			}
		}
	}
}

// armRead sets the read deadline for the next frame; on a read error it
// classifies deadline trips for the counters.
func (l *link) armRead(conn net.Conn) {
	if l.cfg.readTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(l.cfg.readTimeout))
	}
}

func (l *link) noteReadError(err error) {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		l.cfg.counters.DeadlineTrips.Add(1)
	}
}

// closeLink tears the link down. It returns the transport that must be
// closed by the caller (outside the lock).
func (l *link) closeLink() net.Conn {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	close(l.closedCh)
	conn := l.conn
	l.conn = nil
	return conn
}

// err returns the most recent link error (nil while healthy or after a
// clean close).
func (l *link) err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.linkErr
}

// NodeConfig parameterizes a fault-tolerant mobile-node client.
type NodeConfig struct {
	// ID is the node id announced in the Hello.
	ID uint32
	// Pos is the initial position.
	Pos geo.Point
	// FallbackDelta is Δ⊢: the conservative threshold used before the
	// first assignment arrives and again whenever the link is down.
	FallbackDelta float64
	// Dialer opens the transport; nil dials TCP.
	Dialer Dialer
	// HeartbeatEvery is the ping cadence (0 → 1s, <0 disables).
	HeartbeatEvery time.Duration
	// ReadTimeout bounds silence before the link is declared dead
	// (0 → 4×heartbeat, <0 disables).
	ReadTimeout time.Duration
	// WriteTimeout bounds one frame write (0 → 5s, <0 disables).
	WriteTimeout time.Duration
	// BackoffBase and BackoffMax bound the exponential reconnect backoff
	// (0 → 50ms and 2s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// MaxAttempts bounds consecutive failed reconnect dials before the
	// client records a terminal error; 0 retries until Close.
	MaxAttempts int
	// DisableReconnect makes the first link error terminal.
	DisableReconnect bool
	// Seed drives the deterministic backoff jitter; 0 derives one from ID.
	Seed uint64
	// Counters receives degradation accounting; nil allocates a private
	// set (inspect it via Counters).
	Counters *metrics.NetCounters
	// Telemetry, when non-nil, journals this client's link transitions
	// (disconnect, reconnect, give-up).
	Telemetry *telemetry.Hub
}

// NodeClient is a layer-3 mobile node speaking the wire protocol: it
// receives (and hot-swaps) station assignments, dead-reckons locally with
// the region-dependent threshold, and transmits only the updates the
// model requires.
//
// The client survives link failure: it reconnects with exponential
// backoff and deterministic jitter, re-announces its position (Hello) on
// resync — which makes the server re-send the live assignment — and
// forces a fresh full report so the server's motion table rebases. While
// disconnected the node degrades to the conservative fallback threshold
// Δ⊢, exactly its state before the first assignment arrived.
type NodeClient struct {
	cfg  NodeConfig
	addr string
	link *link

	mu      sync.Mutex
	node    *mobilenode.Node
	started bool
	lastPos geo.Point
	lost    int64

	// pending accumulates reports between flushes (guarded by mu).
	pending wire.UpdateBatch

	// flushMu serializes flushes; frameBuf is the flush-owned encode
	// buffer, reused so a steady-state flush allocates nothing.
	flushMu  sync.Mutex
	frameBuf []byte

	wg sync.WaitGroup
}

// DialNode connects a node to the server with default fault tolerance
// and announces its position. The first assignment arrives
// asynchronously; until then the node reports at the fallback threshold
// (Δ⊢ — the conservative choice).
func DialNode(addr string, id uint32, pos geo.Point, fallbackDelta float64) (*NodeClient, error) {
	return DialNodeConfig(addr, NodeConfig{ID: id, Pos: pos, FallbackDelta: fallbackDelta})
}

// DialNodeConfig connects a node with explicit fault-tolerance
// parameters.
func DialNodeConfig(addr string, cfg NodeConfig) (*NodeClient, error) {
	if cfg.FallbackDelta <= 0 {
		return nil, fmt.Errorf("netsvc: non-positive fallback threshold %v", cfg.FallbackDelta)
	}
	if cfg.Seed == 0 {
		cfg.Seed = uint64(cfg.ID)*0x9e3779b97f4a7c15 + 1
	}
	lc := linkConfig{
		dialer:         cfg.Dialer,
		heartbeatEvery: cfg.HeartbeatEvery,
		readTimeout:    cfg.ReadTimeout,
		writeTimeout:   cfg.WriteTimeout,
		backoffBase:    cfg.BackoffBase,
		backoffMax:     cfg.BackoffMax,
		maxAttempts:    cfg.MaxAttempts,
		reconnect:      !cfg.DisableReconnect,
		counters:       cfg.Counters,
		seed:           cfg.Seed,
		hub:            cfg.Telemetry,
		peer:           "node",
		node:           int64(cfg.ID),
	}
	lc.fill()
	conn, err := lc.dialer(addr)
	if err != nil {
		return nil, err
	}
	if err := wire.WriteFrame(conn, wire.AppendHello(nil, wire.Hello{Node: cfg.ID, Pos: cfg.Pos})); err != nil {
		conn.Close()
		return nil, err
	}
	c := &NodeClient{
		cfg:  cfg,
		addr: addr,
		node: mobilenode.NewNode(int(cfg.ID)),
	}
	// State-aware keepalive: while no assignment is installed (the Hello
	// or its answer was lost in transit), each heartbeat re-announces the
	// position instead of pinging, so the server re-learns the node and
	// re-sends the live assignment without waiting for a reconnect.
	lc.keepalive = func(token uint32) [][]byte {
		c.mu.Lock()
		pos := c.lastPos
		station := c.node.Station()
		c.mu.Unlock()
		if station < 0 {
			return [][]byte{wire.AppendHello(nil, wire.Hello{Node: cfg.ID, Pos: pos})}
		}
		return [][]byte{wire.AppendPing(nil, wire.Ping{Token: token})}
	}
	c.link = newLink(lc, conn)
	c.lastPos = cfg.Pos
	c.wg.Add(3)
	go c.run(conn)
	go func() {
		defer c.wg.Done()
		c.link.heartbeatLoop()
	}()
	go c.flushLoop()
	return c, nil
}

// flushLoop is the time-based half of the batching policy: it drains the
// pending batch every batchFlushEvery so a lone report never waits on the
// size trigger. It exits with the link (Close waits for it), so a stopped
// client leaks no flusher goroutine.
func (c *NodeClient) flushLoop() {
	defer c.wg.Done()
	// Profiler attribution: name the flusher in CPU/goroutine profiles,
	// mirroring the server loops' lira_phase labels.
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("lira_phase", "flush")))
	ticker := time.NewTicker(batchFlushEvery)
	defer ticker.Stop()
	for {
		select {
		case <-c.link.closedCh:
			return
		case <-ticker.C:
			c.flushPending()
		}
	}
}

// flushPending writes the pending batch as one UpdateBatch frame. A
// failed write loses the whole batch; every lost report is counted.
func (c *NodeClient) flushPending() {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	c.mu.Lock()
	n := c.pending.Len()
	if n == 0 {
		c.mu.Unlock()
		return
	}
	c.frameBuf = wire.AppendUpdateBatch(c.frameBuf[:0], &c.pending)
	c.pending.Reset()
	frame := c.frameBuf // flushMu keeps the buffer ours until WriteFrame returns
	c.mu.Unlock()
	if err := c.link.send(frame); err != nil && err != ErrClosed {
		c.link.cfg.counters.LostUpdates.Add(int64(n))
		c.mu.Lock()
		c.lost += int64(n)
		c.mu.Unlock()
	}
}

// run owns the connection lifecycle: read until the link fails, degrade,
// reconnect, repeat.
func (c *NodeClient) run(conn net.Conn) {
	defer c.wg.Done()
	for {
		err := c.readLoop(conn)
		conn.Close()
		if !c.link.lost(err) {
			return // closed by user: clean shutdown
		}
		c.link.cfg.counters.Disconnects.Add(1)
		c.link.cfg.recordNet("disconnect", "read")
		// Graceful degradation: revert to Δ⊢ until resync, and force a
		// fresh full report on the next Observe after reconnecting.
		c.mu.Lock()
		c.node.Drop()
		c.started = false
		c.mu.Unlock()
		if !c.link.cfg.reconnect {
			return
		}
		next, ok := c.link.reconnect(c.addr, func(nc net.Conn) error {
			c.mu.Lock()
			pos := c.lastPos
			c.mu.Unlock()
			if c.link.cfg.writeTimeout > 0 {
				nc.SetWriteDeadline(time.Now().Add(c.link.cfg.writeTimeout))
			}
			err := wire.WriteFrame(nc, wire.AppendHello(nil, wire.Hello{Node: c.cfg.ID, Pos: pos}))
			nc.SetWriteDeadline(time.Time{})
			return err
		})
		if !ok {
			return
		}
		conn = next
	}
}

// readLoop consumes frames until the link errors. It returns nil only
// when the client was closed.
func (c *NodeClient) readLoop(conn net.Conn) error {
	for {
		c.link.armRead(conn)
		typ, payload, err := wire.ReadFrame(conn)
		if err != nil {
			if c.link.isClosed() {
				return nil
			}
			c.link.noteReadError(err)
			return err
		}
		switch typ {
		case wire.TypeAssignment:
			wa, err := wire.DecodeAssignment(payload)
			if err != nil {
				return err // corrupted stream: resync via reconnect
			}
			a := &basestation.Assignment{DefaultDelta: wa.DefaultDelta}
			for _, e := range wa.Entries {
				a.Regions = append(a.Regions, e.Rect())
				a.Deltas = append(a.Deltas, e.Delta)
			}
			compiled := mobilenode.Compile(a)
			c.mu.Lock()
			c.node.Install(int(wa.Station), compiled)
			c.mu.Unlock()
		case wire.TypePong:
			// Liveness: the read deadline was refreshed above.
		default:
			// Nodes only consume assignments and pongs.
		}
	}
}

// Observe feeds the node's true state at time t. When dead reckoning
// demands a report, it is enqueued onto the pending batch, which leaves
// within batchFlushEvery or as soon as batchSize reports accumulate; the
// result says whether one was generated. While the link is down the
// flush counts the report as lost and the node keeps dead-reckoning at
// the fallback threshold — reconnection re-announces the position and
// rebases the server with a fresh full report, so the loss is bounded,
// never silent.
func (c *NodeClient) Observe(pos geo.Point, vel geo.Vector, t float64) (sent bool, err error) {
	if c.link.isClosed() {
		return false, ErrClosed
	}
	c.mu.Lock()
	c.lastPos = pos
	var rep motion.Report
	send := true
	if !c.started {
		rep = c.node.Start(pos, vel, t)
		c.started = true
	} else {
		rep, send = c.node.Observe(pos, vel, t, c.cfg.FallbackDelta)
	}
	if !send {
		c.mu.Unlock()
		return false, nil
	}
	c.pending.Append(wire.Update{Node: c.cfg.ID, Report: rep})
	full := c.pending.Len() >= batchSize
	c.mu.Unlock()
	if full {
		c.flushPending()
	}
	return true, nil
}

// Updates returns the number of reports the node has generated so far
// (including any lost to a down link; see LostUpdates).
func (c *NodeClient) Updates() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.node.Updates
}

// LostUpdates returns the number of reports discarded because the link
// was down.
func (c *NodeClient) LostUpdates() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lost
}

// Reconnects returns the number of successful reconnections.
func (c *NodeClient) Reconnects() int64 {
	c.link.mu.Lock()
	defer c.link.mu.Unlock()
	return c.link.reconnects
}

// Station returns the id of the station whose assignment the node holds,
// or -1 before the first assignment arrives and while degraded after a
// link failure.
func (c *NodeClient) Station() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.node.Station()
}

// Counters exposes the degradation counters this client reports into.
func (c *NodeClient) Counters() *metrics.NetCounters { return c.link.cfg.counters }

// Err returns the most recent link error: nil while the link is healthy
// (or cleanly closed), the terminal error after the client gave up
// reconnecting or reconnection is disabled.
func (c *NodeClient) Err() error { return c.link.err() }

// Close disconnects the node. Reports still waiting in the pending batch
// are flushed first — a graceful shutdown loses nothing it accepted. It
// returns the link's terminal error so callers can distinguish clean
// shutdown (nil) from a failed link.
func (c *NodeClient) Close() error {
	c.flushPending()
	if conn := c.link.closeLink(); conn != nil {
		conn.Close()
	}
	c.wg.Wait()
	return c.link.err()
}

// QueryConfig parameterizes a fault-tolerant query-subscriber client.
type QueryConfig struct {
	// Buffer is the pushed-result channel depth (0 → 16).
	Buffer int
	// Dialer opens the transport; nil dials TCP.
	Dialer Dialer
	// HeartbeatEvery, ReadTimeout, WriteTimeout, BackoffBase, BackoffMax,
	// MaxAttempts, DisableReconnect, and Seed behave as in NodeConfig.
	HeartbeatEvery   time.Duration
	ReadTimeout      time.Duration
	WriteTimeout     time.Duration
	BackoffBase      time.Duration
	BackoffMax       time.Duration
	MaxAttempts      int
	DisableReconnect bool
	Seed             uint64
	// Counters receives degradation accounting; nil allocates a private
	// set.
	Counters *metrics.NetCounters
	// Telemetry, when non-nil, journals this client's link transitions.
	Telemetry *telemetry.Hub
}

// QueryClient subscribes continual range queries and receives pushed
// result sets. On link failure it reconnects like NodeClient and
// re-registers every query under its original local id, so Results keeps
// delivering under the same ids across reconnections.
type QueryClient struct {
	cfg  QueryConfig
	addr string
	link *link

	mu   sync.Mutex
	regs []geo.Rect // registered rects, indexed by local query id

	results chan wire.Result
	wg      sync.WaitGroup
}

// DialQuery connects a query subscriber with default fault tolerance.
// Results arrive on Results() — once immediately per Register, then on
// every server evaluation round.
func DialQuery(addr string, buffer int) (*QueryClient, error) {
	return DialQueryConfig(addr, QueryConfig{Buffer: buffer})
}

// DialQueryConfig connects a query subscriber with explicit
// fault-tolerance parameters.
func DialQueryConfig(addr string, cfg QueryConfig) (*QueryClient, error) {
	if cfg.Buffer <= 0 {
		cfg.Buffer = 16
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x71756572 // "quer"
	}
	lc := linkConfig{
		dialer:         cfg.Dialer,
		heartbeatEvery: cfg.HeartbeatEvery,
		readTimeout:    cfg.ReadTimeout,
		writeTimeout:   cfg.WriteTimeout,
		backoffBase:    cfg.BackoffBase,
		backoffMax:     cfg.BackoffMax,
		maxAttempts:    cfg.MaxAttempts,
		reconnect:      !cfg.DisableReconnect,
		counters:       cfg.Counters,
		seed:           cfg.Seed,
		hub:            cfg.Telemetry,
		peer:           "query",
		node:           -1,
	}
	lc.fill()
	conn, err := lc.dialer(addr)
	if err != nil {
		return nil, err
	}
	c := &QueryClient{
		cfg:     cfg,
		addr:    addr,
		results: make(chan wire.Result, cfg.Buffer),
	}
	// State-aware keepalive: every 8th heartbeat re-sends all
	// registrations. The server installs them idempotently per id, so a
	// Register frame silently lost on a faulty link heals within a few
	// heartbeats instead of only on the next reconnect.
	lc.keepalive = func(token uint32) [][]byte {
		frames := [][]byte{wire.AppendPing(nil, wire.Ping{Token: token})}
		if token%8 == 1 {
			c.mu.Lock()
			for id, r := range c.regs {
				frames = append(frames, wire.AppendQuery(nil, wire.Query{ID: uint32(id), Rect: r}))
			}
			c.mu.Unlock()
		}
		return frames
	}
	c.link = newLink(lc, conn)
	c.wg.Add(2)
	go c.run(conn)
	go func() {
		defer c.wg.Done()
		c.link.heartbeatLoop()
	}()
	return c, nil
}

func (c *QueryClient) run(conn net.Conn) {
	defer c.wg.Done()
	defer close(c.results)
	for {
		err := c.readLoop(conn)
		conn.Close()
		if !c.link.lost(err) {
			return
		}
		c.link.cfg.counters.Disconnects.Add(1)
		c.link.cfg.recordNet("disconnect", "read")
		if !c.link.cfg.reconnect {
			return
		}
		next, ok := c.link.reconnect(c.addr, func(nc net.Conn) error {
			// Re-register every query under its original local id so the
			// result stream resumes seamlessly.
			c.mu.Lock()
			regs := append([]geo.Rect(nil), c.regs...)
			c.mu.Unlock()
			if c.link.cfg.writeTimeout > 0 {
				nc.SetWriteDeadline(time.Now().Add(c.link.cfg.writeTimeout))
			}
			defer nc.SetWriteDeadline(time.Time{})
			for id, r := range regs {
				if err := wire.WriteFrame(nc, wire.AppendQuery(nil, wire.Query{ID: uint32(id), Rect: r})); err != nil {
					return err
				}
			}
			return nil
		})
		if !ok {
			return
		}
		conn = next
	}
}

func (c *QueryClient) readLoop(conn net.Conn) error {
	for {
		c.link.armRead(conn)
		typ, payload, err := wire.ReadFrame(conn)
		if err != nil {
			if c.link.isClosed() {
				return nil
			}
			c.link.noteReadError(err)
			return err
		}
		switch typ {
		case wire.TypeResult:
			res, err := wire.DecodeResult(payload)
			if err != nil {
				return err
			}
			select {
			case c.results <- res:
			default:
				// Subscriber is slow: drop the oldest, keep the freshest.
				select {
				case <-c.results:
				default:
				}
				select {
				case c.results <- res:
				default:
				}
			}
		case wire.TypePong:
		default:
		}
	}
}

// Register subscribes a range query and returns its local id. Results
// for the query carry the same id, across reconnections too. While the
// link is down the registration is queued and installed on resync.
func (c *QueryClient) Register(r geo.Rect) (uint32, error) {
	if c.link.isClosed() {
		return 0, ErrClosed
	}
	c.mu.Lock()
	id := uint32(len(c.regs))
	c.regs = append(c.regs, r)
	c.mu.Unlock()
	if err := c.link.send(wire.AppendQuery(nil, wire.Query{ID: id, Rect: r})); err != nil && err != errDisconnected {
		// errDisconnected is benign: the reconnect handshake replays the
		// registration. Other write failures trigger reconnection, which
		// replays it too — the registration itself is never lost.
		if err == ErrClosed {
			return id, ErrClosed
		}
	}
	return id, nil
}

// Results returns the channel of pushed result sets. It is closed when
// the client is closed or gives up reconnecting.
func (c *QueryClient) Results() <-chan wire.Result { return c.results }

// Reconnects returns the number of successful reconnections.
func (c *QueryClient) Reconnects() int64 {
	c.link.mu.Lock()
	defer c.link.mu.Unlock()
	return c.link.reconnects
}

// Counters exposes the degradation counters this client reports into.
func (c *QueryClient) Counters() *metrics.NetCounters { return c.link.cfg.counters }

// Err returns the most recent link error (see NodeClient.Err).
func (c *QueryClient) Err() error { return c.link.err() }

// Close disconnects the subscriber and returns the link's terminal
// error (nil for a clean shutdown).
func (c *QueryClient) Close() error {
	if conn := c.link.closeLink(); conn != nil {
		conn.Close()
	}
	c.wg.Wait()
	return c.link.err()
}
