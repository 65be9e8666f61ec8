// Package wire defines the binary message formats exchanged between the
// three layers of the LIRA architecture, matching the size accounting of
// §4.3.2: a square shedding region is 3 float32s (min-x, min-y, side) and
// an update throttler one float32, so an assignment entry is exactly
// 16 bytes; the paper's average 41-region broadcast is 656 bytes and fits
// one UDP packet.
//
// Framing is length-prefixed: a 5-byte header (uint32 little-endian
// payload length, 1-byte message type) followed by the payload. All
// multi-byte integers are little-endian; floats are IEEE-754 float32 on
// the wire (the paper's "4 byte float"), float64 in memory.
//
// A dead-reckoning report crosses the wire in exactly one frame,
// TypeUpdateBatch (batch.go): fixed-point integer columns, so a report
// cannot carry NaN or ±Inf. Hello and Query are the only client frames
// with float fields; their receiver validates them.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"lira/internal/geo"
	"lira/internal/motion"
)

// Type identifies a message.
type Type uint8

const (
	// TypeHello is a node's first contact: its id and position.
	TypeHello Type = iota + 1
	// Code 2 is reserved: reports travel in TypeUpdateBatch only, and a
	// receiver treats code 2 as any unknown type. The blank keeps the
	// codes below it stable.
	_
	// TypeAssignment is a station's (region, throttler) broadcast.
	TypeAssignment
	// TypeQuery registers a continual range query.
	TypeQuery
	// TypeResult is one query's current result set.
	TypeResult
	// TypePing is a liveness probe carrying an opaque token; the peer
	// echoes it back as a TypePong. Heartbeats keep read deadlines from
	// tripping on healthy-but-idle links.
	TypePing
	// TypePong answers a ping, echoing its token.
	TypePong
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeAssignment:
		return "assignment"
	case TypeQuery:
		return "query"
	case TypeResult:
		return "result"
	case TypePing:
		return "ping"
	case TypePong:
		return "pong"
	case TypeUpdateBatch:
		return "update_batch"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// MaxPayload bounds a single message payload; it comfortably covers the
// largest realistic assignment (a station knowing every one of a few
// thousand regions) while preventing a corrupt length prefix from
// allocating unbounded memory.
const MaxPayload = 1 << 20

// headerLen is the frame header size: 4-byte length + 1-byte type.
const headerLen = 5

// Hello is a node's first contact with the serving infrastructure.
type Hello struct {
	Node uint32
	Pos  geo.Point
}

// Update carries one dead-reckoning report.
type Update struct {
	Node   uint32
	Report motion.Report
}

// AssignmentEntry is one (square region, throttler) pair — 16 bytes on
// the wire.
type AssignmentEntry struct {
	MinX, MinY, Side float64
	Delta            float64
}

// Rect returns the entry's region as a rectangle.
func (e AssignmentEntry) Rect() geo.Rect {
	return geo.Rect{MinX: e.MinX, MinY: e.MinY, MaxX: e.MinX + e.Side, MaxY: e.MinY + e.Side}
}

// EntryFromRect converts a square region to an assignment entry. Regions
// produced by GRIDREDUCE over a square space are exact squares; for a
// non-square rect the longer side is used, which is the conservative
// over-cover.
func EntryFromRect(r geo.Rect, delta float64) AssignmentEntry {
	side := r.Width()
	if r.Height() > side {
		side = r.Height()
	}
	return AssignmentEntry{MinX: r.MinX, MinY: r.MinY, Side: side, Delta: delta}
}

// Assignment is a station broadcast: the shedding regions and throttlers
// of the station's coverage area.
type Assignment struct {
	Station      uint32
	DefaultDelta float64
	Entries      []AssignmentEntry
}

// Query registers a continual range query with an id.
type Query struct {
	ID   uint32
	Rect geo.Rect
}

// Result is the current result set of one query.
type Result struct {
	ID    uint32
	Nodes []uint32
}

// Ping is a liveness probe; Token is echoed back in the answering pong.
type Ping struct {
	Token uint32
}

// Pong answers a ping.
type Pong struct {
	Token uint32
}

// AssignmentWireSize returns the payload size of an assignment with n
// entries: 4 (station) + 4 (default Δ) + 16·n, matching §4.3.2's
// per-region cost.
func AssignmentWireSize(n int) int { return 8 + 16*n }

type writer struct {
	buf []byte
}

func (w *writer) u32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

func (w *writer) f32(v float64) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, math.Float32bits(float32(v)))
}

type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) ensure(n int) bool {
	if r.err != nil {
		return false
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("wire: truncated payload (need %d bytes at offset %d of %d)", n, r.off, len(r.buf))
		return false
	}
	return true
}

func (r *reader) u32() uint32 {
	if !r.ensure(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *reader) f32() float64 {
	if !r.ensure(4) {
		return 0
	}
	v := math.Float32frombits(binary.LittleEndian.Uint32(r.buf[r.off:]))
	r.off += 4
	return float64(v)
}

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}

// AppendHello encodes h into a frame appended to dst.
func AppendHello(dst []byte, h Hello) []byte {
	var w writer
	w.u32(h.Node)
	w.f32(h.Pos.X)
	w.f32(h.Pos.Y)
	return appendFrame(dst, TypeHello, w.buf)
}

// AppendAssignment encodes a into a frame appended to dst.
func AppendAssignment(dst []byte, a Assignment) []byte {
	var w writer
	w.u32(a.Station)
	w.f32(a.DefaultDelta)
	for _, e := range a.Entries {
		w.f32(e.MinX)
		w.f32(e.MinY)
		w.f32(e.Side)
		w.f32(e.Delta)
	}
	return appendFrame(dst, TypeAssignment, w.buf)
}

// AppendQuery encodes q into a frame appended to dst.
func AppendQuery(dst []byte, q Query) []byte {
	var w writer
	w.u32(q.ID)
	w.f32(q.Rect.MinX)
	w.f32(q.Rect.MinY)
	w.f32(q.Rect.MaxX)
	w.f32(q.Rect.MaxY)
	return appendFrame(dst, TypeQuery, w.buf)
}

// AppendResult encodes r into a frame appended to dst. The payload is
// written straight into dst (its size is known up front), so encoding
// into a reused buffer allocates nothing: result frames are the one
// server→client frame sent on every evaluation tick.
func AppendResult(dst []byte, res Result) []byte {
	payload := 8 + 4*len(res.Nodes)
	dst = slices.Grow(dst, headerLen+payload)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(payload))
	dst = append(dst, byte(TypeResult))
	dst = binary.LittleEndian.AppendUint32(dst, res.ID)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(res.Nodes)))
	for _, n := range res.Nodes {
		dst = binary.LittleEndian.AppendUint32(dst, n)
	}
	return dst
}

// AppendPing encodes p into a frame appended to dst.
func AppendPing(dst []byte, p Ping) []byte {
	var w writer
	w.u32(p.Token)
	return appendFrame(dst, TypePing, w.buf)
}

// AppendPong encodes p into a frame appended to dst.
func AppendPong(dst []byte, p Pong) []byte {
	var w writer
	w.u32(p.Token)
	return appendFrame(dst, TypePong, w.buf)
}

func appendFrame(dst []byte, t Type, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, byte(t))
	return append(dst, payload...)
}

// DecodeHello decodes a hello payload.
func DecodeHello(payload []byte) (Hello, error) {
	r := reader{buf: payload}
	h := Hello{Node: r.u32(), Pos: geo.Point{X: r.f32(), Y: r.f32()}}
	return h, r.done()
}

// DecodeAssignment decodes an assignment payload.
func DecodeAssignment(payload []byte) (Assignment, error) {
	r := reader{buf: payload}
	a := Assignment{Station: r.u32(), DefaultDelta: r.f32()}
	rest := len(payload) - r.off
	if r.err == nil && rest%16 != 0 {
		return a, fmt.Errorf("wire: assignment entries not a multiple of 16 bytes (%d)", rest)
	}
	n := rest / 16
	a.Entries = make([]AssignmentEntry, 0, n)
	for i := 0; i < n; i++ {
		a.Entries = append(a.Entries, AssignmentEntry{
			MinX: r.f32(), MinY: r.f32(), Side: r.f32(), Delta: r.f32(),
		})
	}
	return a, r.done()
}

// DecodeQuery decodes a query payload.
func DecodeQuery(payload []byte) (Query, error) {
	r := reader{buf: payload}
	q := Query{ID: r.u32()}
	q.Rect = geo.Rect{MinX: r.f32(), MinY: r.f32(), MaxX: r.f32(), MaxY: r.f32()}
	return q, r.done()
}

// DecodeResult decodes a result payload.
func DecodeResult(payload []byte) (Result, error) {
	r := reader{buf: payload}
	res := Result{ID: r.u32()}
	n := r.u32()
	if r.err == nil && int(n)*4 != len(payload)-r.off {
		return res, fmt.Errorf("wire: result count %d does not match payload", n)
	}
	res.Nodes = make([]uint32, 0, n)
	for i := uint32(0); i < n; i++ {
		res.Nodes = append(res.Nodes, r.u32())
	}
	return res, r.done()
}

// DecodePing decodes a ping payload.
func DecodePing(payload []byte) (Ping, error) {
	r := reader{buf: payload}
	p := Ping{Token: r.u32()}
	return p, r.done()
}

// DecodePong decodes a pong payload.
func DecodePong(payload []byte) (Pong, error) {
	r := reader{buf: payload}
	p := Pong{Token: r.u32()}
	return p, r.done()
}

// ReadFrame reads one frame from rd. It returns the message type and
// payload, or an error (io.EOF at a clean end of stream).
func ReadFrame(rd io.Reader) (Type, []byte, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(rd, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > MaxPayload {
		return 0, nil, fmt.Errorf("wire: payload length %d exceeds limit", n)
	}
	t := Type(hdr[4])
	payload := make([]byte, n)
	if _, err := io.ReadFull(rd, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return t, payload, nil
}

// WriteFrame writes one pre-encoded frame (as produced by the Append
// functions) to w.
func WriteFrame(w io.Writer, frame []byte) error {
	_, err := w.Write(frame)
	return err
}
