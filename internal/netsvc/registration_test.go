package netsvc

import (
	"bytes"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"lira/internal/cqindex"
	"lira/internal/geo"
	"lira/internal/motion"
	"lira/internal/rng"
	"lira/internal/wire"
)

// pipeListener serves in-memory net.Pipe links: Dial hands the server end
// to Accept and returns the client end.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) Dial(t *testing.T) net.Conn {
	t.Helper()
	srv, cli := net.Pipe()
	select {
	case l.conns <- srv:
	case <-l.closed:
		t.Fatal("dial on a closed pipe listener")
	}
	return cli
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// linearAnswer is the brute-force reference for a query's result: a
// cqindex.Linear scan over every reported node's clamped dead-reckoned
// position at now, from its last report as the wire quantizes it.
func linearAnswer(reports map[uint32]motion.Report, nodes int, r geo.Rect, now float64) []uint32 {
	pts := make([]geo.Point, nodes)
	active := make([]bool, nodes)
	for id, rep := range reports {
		pts[id] = space().ClampPoint(wire.QuantizeReport(rep).Predict(now))
		active[id] = true
	}
	lin := cqindex.NewLinear()
	lin.Rebuild(pts, active)
	var ids []uint32
	lin.Query(r, func(id int) { ids = append(ids, uint32(id)) })
	return ids
}

// uplink sends report batches over one connection and waits until the
// server has admitted each (offered, and landed in the queue or the
// table), recording every report as the node's latest.
type uplink struct {
	t       *testing.T
	s       *Server
	c       net.Conn
	reports map[uint32]motion.Report
	offered int64
}

func (u *uplink) send(ups ...wire.Update) {
	u.t.Helper()
	var b wire.UpdateBatch
	for _, up := range ups {
		b.Append(up)
		u.reports[up.Node] = up.Report
	}
	if err := wire.WriteFrame(u.c, wire.AppendUpdateBatch(nil, &b)); err != nil {
		u.t.Fatal(err)
	}
	u.offered += int64(len(ups))
	waitFor(u.t, "batch admitted", func() bool {
		l := u.s.Ledger()
		return l.Offered == u.offered && l.Balance == 0
	})
}

// edgeUpdates places nodes on the edges and corner of edgeRect, and nodes
// whose dead reckoning overshoots the space so they are clamped onto its
// border, all reporting at t.
func edgeUpdates(t float64) []wire.Update {
	at := func(id uint32, x, y, vx, vy float64) wire.Update {
		return wire.Update{Node: id, Report: motion.Report{Pos: geo.Point{X: x, Y: y}, Vel: geo.Vector{X: vx, Y: vy}, Time: t}}
	}
	return []wire.Update{
		at(1, 200, 300, 0, 0), at(4, 600, 600, 0, 0), at(7, 400, 200, 0, 0),
		at(10, 1990, 1000, 50, 0), at(13, 5, 5, -20, -20), at(16, 1000, 1995, 0, 40),
	}
}

var edgeRect = geo.NewRect(200, 200, 600, 600)

// registrationRects are the queries the registration tests register:
// rects with nodes exactly on their edges, rects on and beyond the border
// clamped nodes are pushed onto, one wholly outside the space, and random
// ones.
func registrationRects(r *rng.Rand) []geo.Rect {
	rects := []geo.Rect{
		edgeRect,
		{MinX: 2000, MinY: 0, MaxX: 2000, MaxY: 2000},    // zero width, on the east border
		{MinX: 1900, MinY: -100, MaxX: 2100, MaxY: 2100}, // overhangs the space
		{MinX: 0, MinY: 0, MaxX: 0, MaxY: 0},             // the south-west corner
		{MinX: 2100, MinY: 2100, MaxX: 2200, MaxY: 2200}, // wholly outside
	}
	for i := 0; i < 4; i++ {
		x, y := r.Range(0, 1600), r.Range(0, 1600)
		rects = append(rects, geo.NewRect(x, y, x+r.Range(50, 400), y+r.Range(50, 400)))
	}
	return rects
}

// randomUpdates reports n random nodes among every third id at t.
func randomUpdates(r *rng.Rand, nodes, n int, t float64) []wire.Update {
	ups := make([]wire.Update, n)
	for i := range ups {
		ups[i] = wire.Update{Node: uint32(3 * r.Intn(nodes/3)), Report: motion.Report{
			Pos:  geo.Point{X: r.Range(0, 2000), Y: r.Range(0, 2000)},
			Vel:  geo.Vector{X: r.Range(-30, 30), Y: r.Range(-30, 30)},
			Time: t,
		}}
	}
	return ups
}

// TestRegistrationAnswersMatchLinearScan drives registrations through a
// live server over net.Pipe: every answer must be exactly the brute-force
// scan of the reports sent so far, predicted to the registration instant
// — for new ids and for an id re-registered under a new rect, with
// updates arriving between registrations (the registration drains them),
// and at both K.
func TestRegistrationAnswersMatchLinearScan(t *testing.T) {
	const nodes = 64
	for _, shards := range []int{1, 2} {
		clk := &fakeClock{}
		clk.Advance(100_000)
		pl := newPipeListener()
		// EvalEvery 0: no pushes, so every Result frame is an answer.
		s, err := Serve(pl, ServerConfig{Core: coreConfig(nodes), Shards: shards, Z: 1, Clock: clk.Now})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		up := &uplink{t: t, s: s, c: pl.Dial(t), reports: map[uint32]motion.Report{}}
		defer up.c.Close()
		qc := pl.Dial(t)
		defer qc.Close()

		r := rng.New(uint64(10 + shards))
		up.send(append(edgeUpdates(clk.Now()-10), randomUpdates(r, nodes, 12, clk.Now()-5)...)...)
		rects := registrationRects(r)
		rects = append(rects, rects[len(rects)-1]) // re-registered under id 0 below
		for i, rect := range rects {
			id := uint32(i)
			if i == len(rects)-1 {
				id = 0
			}
			clk.Advance(250)
			if err := wire.WriteFrame(qc, wire.AppendQuery(nil, wire.Query{ID: id, Rect: rect})); err != nil {
				t.Fatal(err)
			}
			typ, payload, err := wire.ReadFrame(qc)
			if err != nil || typ != wire.TypeResult {
				t.Fatalf("K=%d query %d: read %v frame, err %v; want a result", shards, id, typ, err)
			}
			res, err := wire.DecodeResult(payload)
			if err != nil {
				t.Fatal(err)
			}
			want := linearAnswer(up.reports, nodes, rect, clk.Now())
			if res.ID != id || !slices.Equal(res.Nodes, want) {
				t.Fatalf("K=%d query %d %v: answer %d %v, linear scan %v", shards, id, rect, res.ID, res.Nodes, want)
			}
			if i == 0 && len(want) < 3 {
				t.Fatalf("K=%d: the edge rect holds %v; the fixture must put nodes on its edges", shards, want)
			}
			// Fresh reports between registrations: the next answer must
			// include them.
			up.send(randomUpdates(r, nodes, 4, clk.Now())...)
		}
		if got := s.Introspect().Queries; got != len(rects)-1 {
			t.Errorf("K=%d: %d queries registered, want %d (re-registration replaces)", shards, got, len(rects)-1)
		}
	}
}

// countingListener wraps Serve's listener so a test sees every Write the
// server makes on each connection it accepts, in accept order.
type countingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*countingConn
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: c}
	l.mu.Lock()
	l.conns = append(l.conns, cc)
	l.mu.Unlock()
	return cc, nil
}

func (l *countingListener) accepted() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.conns)
}

// countingConn records the bytes of every Write, one entry per call.
type countingConn struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, bytes.Clone(b))
	c.mu.Unlock()
	return c.Conn.Write(b)
}

func (c *countingConn) log() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.writes)
}

// TestOneResultWritePerConnectionPerTick: a tick sends each subscriber
// all of its result frames in one Write, and that Write carries exactly
// the bytes frame-by-frame sends would have — each connection's frames in
// its registration order — even when two subscribers registered their
// queries interleaved.
func TestOneResultWritePerConnectionPerTick(t *testing.T) {
	const nodes = 64
	clk := &fakeClock{}
	clk.Advance(100_000) // the clock stands still: every tick answers alike
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &countingListener{Listener: tcp}
	s, err := Serve(ln, ServerConfig{Core: coreConfig(nodes), Z: 1, EvalEvery: 10 * time.Millisecond, Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	dial := func() net.Conn {
		n := ln.accepted() + 1
		c, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "accept", func() bool { return ln.accepted() == n })
		return c
	}
	up := &uplink{t: t, s: s, c: dial(), reports: map[uint32]motion.Report{}}
	defer up.c.Close()
	r := rng.New(5)
	up.send(append(edgeUpdates(clk.Now()-10), randomUpdates(r, nodes, 20, clk.Now()-5)...)...)

	subs := []net.Conn{dial(), dial()}
	for _, c := range subs {
		defer c.Close()
		go io.Copy(io.Discard, c)
	}
	srv := []*countingConn{ln.conns[1], ln.conns[2]}
	// Registration order A0 B0 A1 B1 A2: each subscriber's queries are
	// interleaved with the other's in the server's query set.
	rects := registrationRects(r)
	want := make([][]byte, len(subs))
	for i := 0; i < 5; i++ {
		sub, id, rect := i%2, uint32(10*(1+i%2)+i/2), rects[i]
		if err := wire.WriteFrame(subs[sub], wire.AppendQuery(nil, wire.Query{ID: id, Rect: rect})); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "registration", func() bool { return s.Introspect().Queries == i+1 })
		want[sub] = wire.AppendResult(want[sub], wire.Result{ID: id, Nodes: linearAnswer(up.reports, nodes, rect, clk.Now())})
	}

	// Steady state: the last three writes are whole ticks. From then on,
	// every write must be one whole tick.
	steady := func(c *countingConn, w []byte) bool {
		log := c.log()
		if len(log) < 3 {
			return false
		}
		for _, b := range log[len(log)-3:] {
			if !bytes.Equal(b, w) {
				return false
			}
		}
		return true
	}
	for i, c := range srv {
		waitFor(t, "whole-tick writes", func() bool { return steady(c, want[i]) })
	}
	marks := []int{len(srv[0].log()), len(srv[1].log())}
	for i, c := range srv {
		waitFor(t, "five more ticks", func() bool { return len(c.log()) >= marks[i]+5 })
		for k, b := range c.log()[marks[i] : marks[i]+5] {
			if !bytes.Equal(b, want[i]) {
				t.Fatalf("subscriber %d, write %d after steady state: %d bytes, want one tick's %d bytes of frames", i, k, len(b), len(want[i]))
			}
		}
	}
}
