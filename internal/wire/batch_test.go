package wire

import (
	"bytes"
	"io"
	"math"
	"testing"
	"testing/quick"

	"lira/internal/geo"
	"lira/internal/motion"
	"lira/internal/rng"
)

func randomBatch(r *rng.Rand, n int) *UpdateBatch {
	var b UpdateBatch
	for i := 0; i < n; i++ {
		b.Append(Update{
			Node: uint32(r.Intn(1 << 20)),
			Report: motion.Report{
				Pos:  geo.Point{X: r.Float64()*20000 - 10000, Y: r.Float64()*20000 - 10000},
				Vel:  geo.Vector{X: r.Float64()*60 - 30, Y: r.Float64()*60 - 30},
				Time: r.Float64() * 1e6,
			},
		})
	}
	return &b
}

// Property: encode→decode reproduces the quantized input exactly, for
// arbitrary batch sizes including the 0 and 1 edges.
func TestUpdateBatchRoundTripProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		r := rng.New(seed)
		n := int(nRaw) % 300
		if seed%3 == 0 { // force the edge sizes often
			n = int(seed/3) % 2
		}
		b := randomBatch(r, n)
		frame := AppendUpdateBatch(nil, b)
		typ, payload, err := ReadFrame(bytes.NewReader(frame))
		if err != nil || typ != TypeUpdateBatch {
			return false
		}
		var got UpdateBatch
		if err := DecodeUpdateBatchInto(&got, payload); err != nil {
			return false
		}
		if got.Len() != n {
			return false
		}
		for i := 0; i < n; i++ {
			want := b.Update(i)
			want.Report = QuantizeReport(want.Report)
			if got.Update(i) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Quantized values are fixed points of the wire: encoding an
// already-decoded batch reproduces it bit for bit.
func TestUpdateBatchQuantizationIdempotent(t *testing.T) {
	r := rng.New(77)
	b := randomBatch(r, 64)
	var once UpdateBatch
	if err := DecodeUpdateBatchInto(&once, payloadOf(AppendUpdateBatch(nil, b))); err != nil {
		t.Fatal(err)
	}
	var twice UpdateBatch
	if err := DecodeUpdateBatchInto(&twice, payloadOf(AppendUpdateBatch(nil, &once))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < once.Len(); i++ {
		if once.Update(i) != twice.Update(i) {
			t.Fatalf("record %d not a fixed point: %+v vs %+v", i, once.Update(i), twice.Update(i))
		}
	}
	// And the quantization helpers describe the wire exactly.
	for i := 0; i < b.Len(); i++ {
		want := b.Update(i)
		want.Report = QuantizeReport(want.Report)
		if once.Update(i) != want {
			t.Fatalf("record %d: decoded %+v, QuantizeReport says %+v", i, once.Update(i), want)
		}
	}
}

func TestUpdateBatchDecodeErrors(t *testing.T) {
	good := payloadOf(AppendUpdateBatch(nil, randomBatch(rng.New(1), 8)))
	var b UpdateBatch
	if err := DecodeUpdateBatchInto(&b, good); err != nil {
		t.Fatalf("good payload rejected: %v", err)
	}
	// Truncations at every prefix must error, never panic.
	for cut := 0; cut < len(good); cut++ {
		if err := DecodeUpdateBatchInto(&b, good[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Trailing garbage is rejected.
	if err := DecodeUpdateBatchInto(&b, append(append([]byte{}, good...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	// A count the payload cannot pay for is rejected before allocation.
	if err := DecodeUpdateBatchInto(&b, []byte{0xe8, 0x07, 1, 2, 3}); err == nil {
		t.Error("underfunded count accepted")
	}
	// Counts beyond MaxBatch are rejected outright.
	huge := make([]byte, 10+6*(MaxBatch+1))
	huge[0], huge[1], huge[2] = 0x80, 0x80, 0x02 // uvarint 32768+... > MaxBatch
	if err := DecodeUpdateBatchInto(&b, huge); err == nil {
		t.Error("count beyond MaxBatch accepted")
	}
	// A negative or >uint32 node id (via delta overflow) is rejected.
	neg := binary_appendUvarint([]byte{1}, zigzag(-5))
	neg = append(neg, make([]byte, 5)...)
	if err := DecodeUpdateBatchInto(&b, neg); err == nil {
		t.Error("negative node id accepted")
	}
}

// binary_appendUvarint mirrors binary.AppendUvarint without importing it
// twice; kept tiny and local to the test.
func binary_appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// The decode path must be allocation-free once the batch scratch has
// reached its high-water capacity — this is the per-frame server cost.
func TestDecodeUpdateBatchZeroAlloc(t *testing.T) {
	payload := payloadOf(AppendUpdateBatch(nil, randomBatch(rng.New(9), 256)))
	var b UpdateBatch
	if err := DecodeUpdateBatchInto(&b, payload); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := DecodeUpdateBatchInto(&b, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("DecodeUpdateBatchInto allocates %.1f/op in steady state, want 0", allocs)
	}
}

// Encoding into a reused buffer is likewise allocation-free.
func TestAppendUpdateBatchZeroAllocReused(t *testing.T) {
	b := randomBatch(rng.New(10), 128)
	buf := AppendUpdateBatch(nil, b)
	allocs := testing.AllocsPerRun(200, func() {
		buf = AppendUpdateBatch(buf[:0], b)
	})
	if allocs != 0 {
		t.Errorf("AppendUpdateBatch allocates %.1f/op into a warm buffer, want 0", allocs)
	}
}

// Result frames go out on every evaluation tick; the server encodes a
// tick's frames back to back into one reused buffer, so appending after
// earlier content must not disturb it and must not allocate.
func TestAppendResultZeroAllocReused(t *testing.T) {
	res := Result{ID: 7, Nodes: make([]uint32, 300)}
	for i := range res.Nodes {
		res.Nodes[i] = uint32(i * 3)
	}
	one := AppendResult(nil, res)
	buf := AppendResult(AppendResult(nil, Result{ID: 1}), res)
	if !bytes.Equal(buf[len(buf)-len(one):], one) || len(buf) != headerLen+8+len(one) {
		t.Fatalf("frame appended after another differs from the frame alone")
	}
	allocs := testing.AllocsPerRun(200, func() {
		buf = AppendResult(AppendResult(buf[:0], Result{ID: 1}), res)
	})
	if allocs != 0 {
		t.Errorf("AppendResult allocates %.1f/op into a warm buffer, want 0", allocs)
	}
}

// FrameReader reuses its payload buffer: reading a long stream of frames
// allocates nothing after the first (largest) frame.
func TestFrameReaderZeroAlloc(t *testing.T) {
	var stream []byte
	for i := 0; i < 64; i++ {
		stream = AppendUpdateBatch(stream, randomBatch(rng.New(uint64(i)), 64))
	}
	rd := bytes.NewReader(stream)
	fr := NewFrameReader(rd)
	for {
		_, _, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		rd.Reset(stream)
		for {
			typ, payload, err := fr.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if typ != TypeUpdateBatch || len(payload) == 0 {
				t.Fatal("unexpected frame")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("FrameReader allocates %.1f per 64-frame stream in steady state, want 0", allocs)
	}
}

// FrameReader and ReadFrame must agree on the stream they parse.
func TestFrameReaderMatchesReadFrame(t *testing.T) {
	var stream []byte
	stream = AppendHello(stream, Hello{Node: 3, Pos: geo.Point{X: 5, Y: 6}})
	stream = AppendQuery(stream, Query{ID: 3})
	stream = AppendUpdateBatch(stream, randomBatch(rng.New(4), 3))
	stream = AppendPing(stream, Ping{Token: 11})

	fr := NewFrameReader(bytes.NewReader(stream))
	legacy := bytes.NewReader(stream)
	for i := 0; ; i++ {
		t1, p1, err1 := fr.Next()
		t2, p2, err2 := ReadFrame(legacy)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("frame %d: err %v vs %v", i, err1, err2)
		}
		if err1 != nil {
			if err1 != io.EOF || err2 != io.EOF {
				t.Fatalf("frame %d: end errors %v vs %v", i, err1, err2)
			}
			break
		}
		if t1 != t2 || !bytes.Equal(p1, p2) {
			t.Fatalf("frame %d: (%v, %d bytes) vs (%v, %d bytes)", i, t1, len(p1), t2, len(p2))
		}
	}
	// An oversized declared length is rejected like ReadFrame rejects it.
	bad := []byte{0xff, 0xff, 0xff, 0xff, byte(TypeQuery)}
	if _, _, err := NewFrameReader(bytes.NewReader(bad)).Next(); err == nil {
		t.Error("oversized length accepted by FrameReader")
	}
}

func TestQuantizeHelpers(t *testing.T) {
	// Quantization error bounds: coords within 2⁻¹⁷, time within 2⁻²¹.
	for _, v := range []float64{0, 1, -1, 123.456789, -9876.54321, 1e5} {
		if d := math.Abs(QuantizeCoord(v) - v); d > 1.0/(1<<17) {
			t.Errorf("QuantizeCoord(%v) off by %v", v, d)
		}
		if d := math.Abs(QuantizeTime(v) - v); d > 1.0/(1<<21) {
			t.Errorf("QuantizeTime(%v) off by %v", v, d)
		}
	}
	// Idempotence.
	q := QuantizeCoord(math.Pi)
	if QuantizeCoord(q) != q {
		t.Error("QuantizeCoord not idempotent")
	}
	qt := QuantizeTime(math.E)
	if QuantizeTime(qt) != qt {
		t.Error("QuantizeTime not idempotent")
	}
}
