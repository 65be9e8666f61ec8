package wire

import (
	"bytes"
	"io"
	"math"
	"testing"
	"testing/quick"

	"lira/internal/geo"
	"lira/internal/rng"
)

func roundTrip(t *testing.T, frame []byte, wantType Type) []byte {
	t.Helper()
	typ, payload, err := ReadFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if typ != wantType {
		t.Fatalf("type = %v, want %v", typ, wantType)
	}
	return payload
}

func TestHelloRoundTrip(t *testing.T) {
	h := Hello{Node: 42, Pos: geo.Point{X: 123.5, Y: -7.25}}
	frame := AppendHello(nil, h)
	if len(frame) != 5+12 {
		t.Fatalf("hello frame = %d bytes, want 17", len(frame))
	}
	payload := roundTrip(t, frame, TypeHello)
	got, err := DecodeHello(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("got %+v, want %+v", got, h)
	}
	// The payload is exactly 12 bytes: anything longer is malformed.
	for _, extra := range []int{1, 2} {
		if _, err := DecodeHello(append(payload[:12:12], make([]byte, extra)...)); err == nil {
			t.Errorf("%d-byte hello accepted", 12+extra)
		}
	}
}

func TestAssignmentRoundTripAndSize(t *testing.T) {
	a := Assignment{
		Station:      3,
		DefaultDelta: 5,
		Entries: []AssignmentEntry{
			{MinX: 0, MinY: 0, Side: 500, Delta: 5},
			{MinX: 500, MinY: 0, Side: 500, Delta: 25},
			{MinX: 0, MinY: 500, Side: 1000, Delta: 100},
		},
	}
	frame := AppendAssignment(nil, a)
	// Frame = 5-byte header + payload; payload follows §4.3.2 sizing.
	if wantPayload := AssignmentWireSize(3); len(frame) != 5+wantPayload {
		t.Errorf("frame size %d, want %d", len(frame), 5+wantPayload)
	}
	payload := roundTrip(t, frame, TypeAssignment)
	got, err := DecodeAssignment(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Station != a.Station || got.DefaultDelta != a.DefaultDelta || len(got.Entries) != 3 {
		t.Fatalf("got %+v", got)
	}
	for i := range a.Entries {
		if got.Entries[i] != a.Entries[i] {
			t.Errorf("entry %d: %+v vs %+v", i, got.Entries[i], a.Entries[i])
		}
	}
}

func TestPaperBroadcastSize(t *testing.T) {
	// The paper's 41-region broadcast: 41·16 = 656 bytes of entries.
	if got := AssignmentWireSize(41) - 8; got != 656 {
		t.Errorf("41 regions = %d entry bytes, want 656", got)
	}
}

func TestQueryAndResultRoundTrip(t *testing.T) {
	q := Query{ID: 9, Rect: geo.Rect{MinX: 1, MinY: 2, MaxX: 3, MaxY: 4}}
	payload := roundTrip(t, AppendQuery(nil, q), TypeQuery)
	gotQ, err := DecodeQuery(payload)
	if err != nil {
		t.Fatal(err)
	}
	if gotQ != q {
		t.Errorf("got %+v, want %+v", gotQ, q)
	}

	res := Result{ID: 9, Nodes: []uint32{1, 5, 100000}}
	payload = roundTrip(t, AppendResult(nil, res), TypeResult)
	gotR, err := DecodeResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	if gotR.ID != res.ID || len(gotR.Nodes) != 3 || gotR.Nodes[2] != 100000 {
		t.Errorf("got %+v", gotR)
	}
	// Empty result set round-trips too.
	payload = roundTrip(t, AppendResult(nil, Result{ID: 1}), TypeResult)
	if gotR, err = DecodeResult(payload); err != nil || len(gotR.Nodes) != 0 {
		t.Errorf("empty result: %+v, %v", gotR, err)
	}
}

func TestEntryRectConversion(t *testing.T) {
	e := AssignmentEntry{MinX: 100, MinY: 200, Side: 50, Delta: 7}
	r := e.Rect()
	want := geo.Rect{MinX: 100, MinY: 200, MaxX: 150, MaxY: 250}
	if r != want {
		t.Errorf("Rect = %v, want %v", r, want)
	}
	// Round-trip through EntryFromRect.
	e2 := EntryFromRect(r, 7)
	if e2 != e {
		t.Errorf("EntryFromRect = %+v, want %+v", e2, e)
	}
	// Non-square rect: longer side wins (conservative over-cover).
	e3 := EntryFromRect(geo.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 30}, 1)
	if e3.Side != 30 {
		t.Errorf("non-square side = %v, want 30", e3.Side)
	}
}

func TestStreamOfFrames(t *testing.T) {
	var buf bytes.Buffer
	frames := AppendHello(nil, Hello{Node: 1, Pos: geo.Point{X: 1, Y: 1}})
	frames = AppendQuery(frames, Query{ID: 1})
	frames = AppendAssignment(frames, Assignment{Station: 2, DefaultDelta: 5})
	buf.Write(frames)

	want := []Type{TypeHello, TypeQuery, TypeAssignment}
	for i, w := range want {
		typ, _, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != w {
			t.Fatalf("frame %d type = %v, want %v", i, typ, w)
		}
	}
	if _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Errorf("end of stream error = %v, want io.EOF", err)
	}
}

func TestReadFrameTruncation(t *testing.T) {
	frame := AppendQuery(nil, Query{ID: 1})
	for cut := 1; cut < len(frame); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(frame[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestReadFrameOversizedPayloadRejected(t *testing.T) {
	frame := []byte{0xff, 0xff, 0xff, 0xff, byte(TypeQuery)}
	if _, _, err := ReadFrame(bytes.NewReader(frame)); err == nil {
		t.Error("oversized length accepted")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeHello([]byte{1, 2}); err == nil {
		t.Error("short hello accepted")
	}
	if _, err := DecodeQuery(make([]byte, 100)); err == nil {
		t.Error("long query accepted")
	}
	if _, err := DecodeAssignment(make([]byte, 8+7)); err == nil {
		t.Error("ragged assignment accepted")
	}
	if _, err := DecodeResult([]byte{1, 0, 0, 0, 9, 0, 0, 0}); err == nil {
		t.Error("result with wrong count accepted")
	}
	if _, err := DecodeQuery(make([]byte, 3)); err == nil {
		t.Error("short query accepted")
	}
}

// Property: assignments round-trip for arbitrary entry sets within
// float32's exact range.
func TestAssignmentRoundTripProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		r := rng.New(seed)
		n := int(nRaw) % 64
		a := Assignment{
			Station:      uint32(r.Intn(1 << 16)),
			DefaultDelta: float64(r.Intn(1000)),
		}
		for i := 0; i < n; i++ {
			a.Entries = append(a.Entries, AssignmentEntry{
				MinX:  float64(r.Intn(1 << 20)),
				MinY:  float64(r.Intn(1 << 20)),
				Side:  float64(r.Intn(1<<14) + 1),
				Delta: float64(r.Intn(100) + 5),
			})
		}
		payload := AppendAssignment(nil, a)[5:]
		got, err := DecodeAssignment(payload)
		if err != nil {
			return false
		}
		if got.Station != a.Station || got.DefaultDelta != a.DefaultDelta || len(got.Entries) != n {
			return false
		}
		for i := range a.Entries {
			if got.Entries[i] != a.Entries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFloat32Quantization(t *testing.T) {
	// Positions quantize to float32 on the wire: the error must stay far
	// below Δ⊢ = 5 m for coordinates within a metropolitan space.
	x := 14141.87654321
	payload := AppendHello(nil, Hello{Node: 1, Pos: geo.Point{X: x, Y: x}})[5:]
	got, err := DecodeHello(payload)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(got.Pos.X - x); diff > 0.01 {
		t.Errorf("float32 quantization error %v m too large", diff)
	}
}

func TestPingPongRoundTrip(t *testing.T) {
	p := Ping{Token: 0xdeadbeef}
	payload := roundTrip(t, AppendPing(nil, p), TypePing)
	gotP, err := DecodePing(payload)
	if err != nil {
		t.Fatal(err)
	}
	if gotP != p {
		t.Errorf("got %+v, want %+v", gotP, p)
	}
	q := Pong{Token: 0xdeadbeef}
	payload = roundTrip(t, AppendPong(nil, q), TypePong)
	gotQ, err := DecodePong(payload)
	if err != nil {
		t.Fatal(err)
	}
	if gotQ != q {
		t.Errorf("got %+v, want %+v", gotQ, q)
	}
	if _, err := DecodePing([]byte{1, 2}); err == nil {
		t.Error("short ping accepted")
	}
	if _, err := DecodePong(make([]byte, 8)); err == nil {
		t.Error("long pong accepted")
	}
}

func TestTypeString(t *testing.T) {
	// The numeric codes are the protocol: they must never shift.
	codes := map[Type]uint8{TypeHello: 1, TypeAssignment: 3, TypeQuery: 4, TypeResult: 5, TypePing: 6, TypePong: 7, TypeUpdateBatch: 8}
	for typ, code := range codes {
		if uint8(typ) != code {
			t.Errorf("%v has code %d, want %d", typ, uint8(typ), code)
		}
		if s := typ.String(); s == "" || s[0] == 'T' {
			t.Errorf("Type %d has no name (%q)", typ, s)
		}
	}
	if Type(2).String() != "Type(2)" {
		t.Errorf("reserved code 2 prints %q, want Type(2)", Type(2).String())
	}
	if Type(99).String() != "Type(99)" {
		t.Errorf("unknown type string = %q", Type(99).String())
	}
}
