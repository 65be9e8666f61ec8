// Fuzz targets for every wire decoder plus the framing reader. The
// invariant under fuzzing is uniform: malformed input must produce an
// error — never a panic and never an allocation larger than the input
// justifies. Seed corpora are the valid encodings, so the fuzzer starts
// from well-formed frames and mutates toward the boundaries.
package wire

import (
	"bytes"
	"math"
	"testing"

	"lira/internal/geo"
	"lira/internal/motion"
)

// payloadOf strips the 5-byte frame header from a freshly encoded frame.
func payloadOf(frame []byte) []byte { return frame[headerLen:] }

func FuzzDecodeHello(f *testing.F) {
	f.Add(payloadOf(AppendHello(nil, Hello{Node: 7, Pos: geo.Point{X: 100, Y: 200}})))
	f.Add([]byte{})
	// Non-finite positions decode (float32 carries them); netsvc rejects
	// them at registration.
	f.Add(payloadOf(AppendHello(nil, Hello{Node: 7, Pos: geo.Point{X: math.NaN(), Y: math.Inf(1)}})))
	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := DecodeHello(b)
		if err != nil {
			return
		}
		if h != h { // NaN position: decodes, but not comparable
			return
		}
		got, err2 := DecodeHello(payloadOf(AppendHello(nil, h)))
		if err2 != nil || got != h {
			t.Fatalf("re-encode round-trip: %+v vs %+v (%v)", got, h, err2)
		}
	})
}

func FuzzDecodeAssignment(f *testing.F) {
	f.Add(payloadOf(AppendAssignment(nil, Assignment{
		Station:      1,
		DefaultDelta: 5,
		Entries: []AssignmentEntry{
			{MinX: 0, MinY: 0, Side: 500, Delta: 5},
			{MinX: 500, MinY: 500, Side: 500, Delta: 25},
		},
	})))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		a, err := DecodeAssignment(b)
		if err != nil {
			return
		}
		// The decoder must size the entry slice from the payload it
		// actually received, never from attacker-controlled counts.
		if cap(a.Entries)*16 > len(b) {
			t.Fatalf("over-allocation: cap %d entries from %d payload bytes", cap(a.Entries), len(b))
		}
	})
}

func FuzzDecodeQuery(f *testing.F) {
	f.Add(payloadOf(AppendQuery(nil, Query{ID: 2, Rect: geo.NewRect(0, 0, 100, 100)})))
	f.Add([]byte{})
	// Non-finite rects decode too; netsvc rejects them at registration.
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(payloadOf(AppendQuery(nil, Query{ID: 2, Rect: geo.Rect{MinX: nan, MinY: nan, MaxX: nan, MaxY: nan}})))
	f.Add(payloadOf(AppendQuery(nil, Query{ID: 2, Rect: geo.Rect{MinX: -inf, MinY: -inf, MaxX: inf, MaxY: inf}})))
	f.Add(payloadOf(AppendQuery(nil, Query{ID: 2, Rect: geo.Rect{MinX: 10, MinY: 10, MaxX: nan, MaxY: 20}})))
	f.Fuzz(func(t *testing.T, b []byte) {
		q, err := DecodeQuery(b)
		if err != nil {
			return
		}
		if q != q { // NaN rect: decodes, but not comparable
			return
		}
		got, err2 := DecodeQuery(payloadOf(AppendQuery(nil, q)))
		if err2 != nil || got != q {
			t.Fatalf("re-encode round-trip: %+v vs %+v (%v)", got, q, err2)
		}
	})
}

func FuzzDecodeResult(f *testing.F) {
	f.Add(payloadOf(AppendResult(nil, Result{ID: 4, Nodes: []uint32{1, 2, 70000}})))
	f.Add(payloadOf(AppendResult(nil, Result{ID: 5})))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		res, err := DecodeResult(b)
		if err != nil {
			return
		}
		// A huge declared count with a short payload must have errored
		// before allocation.
		if cap(res.Nodes)*4 > len(b) {
			t.Fatalf("over-allocation: cap %d ids from %d payload bytes", cap(res.Nodes), len(b))
		}
	})
}

func FuzzDecodePing(f *testing.F) {
	f.Add(payloadOf(AppendPing(nil, Ping{Token: 99})))
	f.Add(payloadOf(AppendPong(nil, Pong{Token: 7})))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		if p, err := DecodePing(b); err == nil {
			if got, err2 := DecodePing(payloadOf(AppendPing(nil, p))); err2 != nil || got != p {
				t.Fatalf("ping round-trip: %+v vs %+v (%v)", got, p, err2)
			}
		}
		if p, err := DecodePong(b); err == nil {
			if got, err2 := DecodePong(payloadOf(AppendPong(nil, p))); err2 != nil || got != p {
				t.Fatalf("pong round-trip: %+v vs %+v (%v)", got, p, err2)
			}
		}
	})
}

func FuzzDecodeUpdateBatch(f *testing.F) {
	f.Add(payloadOf(AppendUpdateBatch(nil, &UpdateBatch{})))
	one := &UpdateBatch{}
	one.Append(Update{Node: 3, Report: motion.Report{Pos: geo.Point{X: 1, Y: 2}, Vel: geo.Vector{X: 3, Y: 4}, Time: 5}})
	f.Add(payloadOf(AppendUpdateBatch(nil, one)))
	multi := &UpdateBatch{}
	for i := 0; i < 17; i++ {
		multi.Append(Update{Node: uint32(1000 - i), Report: motion.Report{
			Pos: geo.Point{X: float64(i) * 3.25, Y: -float64(i)}, Time: float64(i),
		}})
	}
	f.Add(payloadOf(AppendUpdateBatch(nil, multi)))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		var batch UpdateBatch
		err := DecodeUpdateBatchInto(&batch, b)
		if err != nil {
			return
		}
		// The decoder must size its columns from bytes the payload
		// actually paid for (≥6 per record), never from the raw count.
		if cap(batch.Node)*6 > len(b) && cap(batch.Node) > 0 {
			t.Fatalf("over-allocation: cap %d records from %d payload bytes", cap(batch.Node), len(b))
		}
		// Decoded values are fixed points of the wire quantization, so a
		// re-encode must reproduce the batch exactly.
		var again UpdateBatch
		if err := DecodeUpdateBatchInto(&again, payloadOf(AppendUpdateBatch(nil, &batch))); err != nil {
			t.Fatalf("re-encode failed to decode: %v", err)
		}
		if again.Len() != batch.Len() {
			t.Fatalf("re-encode length %d, want %d", again.Len(), batch.Len())
		}
		for i := 0; i < batch.Len(); i++ {
			if again.Update(i) != batch.Update(i) {
				t.Fatalf("record %d: %+v vs %+v", i, again.Update(i), batch.Update(i))
			}
		}
	})
}

func FuzzReadFrame(f *testing.F) {
	f.Add(AppendHello(nil, Hello{Node: 1, Pos: geo.Point{X: 1, Y: 1}}))
	f.Add(AppendAssignment(nil, Assignment{Station: 0, DefaultDelta: 5}))
	f.Add(AppendResult(nil, Result{ID: 1, Nodes: []uint32{9}}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 2}) // oversized declared length
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(b))
		if err != nil {
			return
		}
		if len(payload) > MaxPayload {
			t.Fatalf("payload %d exceeds MaxPayload", len(payload))
		}
		if len(payload) > len(b) {
			t.Fatalf("payload %d longer than input %d", len(payload), len(b))
		}
		_ = typ
	})
}
