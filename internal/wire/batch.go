// Position-update framing: the only frame a dead-reckoning report
// travels in, and the ingest hot path's wire format.
//
// TypeUpdateBatch amortizes the 5-byte frame header over many reports
// and encodes the records column-major ("vectored"):
//
//	uvarint n                  record count (≤ MaxBatch)
//	n × svarint Δid            node ids, delta vs previous id
//	n × svarint Δqx            fixed-point x, delta vs previous record
//	n × svarint Δqy            fixed-point y
//	n × svarint Δqvx           fixed-point vx
//	n × svarint Δqvy           fixed-point vy
//	n × svarint Δqt            fixed-point time, delta vs previous record
//
// Coordinates and velocities are fixed point at 2⁻¹⁶ m resolution, time
// at 2⁻²⁰ s (≈1 µs); svarint is zigzag varint. One node's consecutive
// reports delta-encode to near-zero ids and small coordinate steps, so a
// steady-state batch record costs a few bytes. Because the wire carries
// integers bounded by maxQ, a decoded batch can never smuggle NaN or ±Inf
// into the motion table: the trust-boundary property holds for every
// report by construction, with no per-field check on the hot path.
//
// Decoding is allocation-free: DecodeUpdateBatchInto fills a
// caller-owned UpdateBatch whose column slices are reused across calls,
// and FrameReader reuses one payload buffer across frames. Both are
// bounded by MaxBatch/MaxPayload before any buffer growth, so a corrupt
// length or count cannot balloon memory.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"lira/internal/geo"
	"lira/internal/motion"
)

// TypeUpdateBatch is a vectored batch of position updates.
const TypeUpdateBatch Type = 8

// MaxBatch bounds the record count of one update batch. It is far above
// any realistic client flush (clients batch tens of updates) while
// keeping the decoder's worst-case buffer growth small.
const MaxBatch = 1 << 15

// Fixed-point scales. Powers of two make quantize→encode→decode exact
// for every representable value: float64(q)/scale round-trips to q.
const (
	coordScale = 1 << 16 // 2⁻¹⁶ m ≈ 15 µm resolution for positions and velocities
	timeScale  = 1 << 20 // 2⁻²⁰ s ≈ 1 µs resolution for report timestamps
)

// QuantizeCoord rounds a coordinate or velocity component to the batch
// wire resolution. Decoded batches carry exactly these values, so a
// differential harness that quantizes its inputs first sees the wire
// path as the identity.
func QuantizeCoord(v float64) float64 {
	return float64(int64(math.Round(v*coordScale))) / coordScale
}

// QuantizeTime rounds a report timestamp to the batch wire resolution.
func QuantizeTime(v float64) float64 {
	return float64(int64(math.Round(v*timeScale))) / timeScale
}

// QuantizeReport applies the batch wire quantization to every field of a
// report — the exact transformation a report undergoes when it travels
// inside an update batch.
func QuantizeReport(r motion.Report) motion.Report {
	return motion.Report{
		Pos:  geo.Point{X: QuantizeCoord(r.Pos.X), Y: QuantizeCoord(r.Pos.Y)},
		Vel:  geo.Vector{X: QuantizeCoord(r.Vel.X), Y: QuantizeCoord(r.Vel.Y)},
		Time: QuantizeTime(r.Time),
	}
}

// UpdateBatch is a column-major (structure-of-arrays) batch of position
// updates: record i is (Node[i], X[i], Y[i], VX[i], VY[i], T[i]). The
// column slices are owned by the holder and reused across encode/decode
// cycles, which is what makes the decode path allocation-free once the
// capacity high-water mark is reached.
type UpdateBatch struct {
	Node               []uint32
	X, Y, VX, VY, Time []float64
}

// Len returns the number of records in the batch.
func (b *UpdateBatch) Len() int { return len(b.Node) }

// Reset empties the batch, keeping the column capacity.
func (b *UpdateBatch) Reset() {
	b.Node = b.Node[:0]
	b.X, b.Y = b.X[:0], b.Y[:0]
	b.VX, b.VY = b.VX[:0], b.VY[:0]
	b.Time = b.Time[:0]
}

// Append adds one update to the batch. Values are stored as given;
// encoding quantizes them to the wire resolution.
func (b *UpdateBatch) Append(u Update) {
	b.Node = append(b.Node, u.Node)
	b.X = append(b.X, u.Report.Pos.X)
	b.Y = append(b.Y, u.Report.Pos.Y)
	b.VX = append(b.VX, u.Report.Vel.X)
	b.VY = append(b.VY, u.Report.Vel.Y)
	b.Time = append(b.Time, u.Report.Time)
}

// Update reconstructs record i as a single update.
func (b *UpdateBatch) Update(i int) Update {
	return Update{
		Node: b.Node[i],
		Report: motion.Report{
			Pos:  geo.Point{X: b.X[i], Y: b.Y[i]},
			Vel:  geo.Vector{X: b.VX[i], Y: b.VY[i]},
			Time: b.Time[i],
		},
	}
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// quantize converts v to fixed point at the given scale. Non-finite
// inputs saturate to int64 bounds (Go's float→int conversion), which
// encodes and decodes as an ordinary — merely absurd — finite value.
func quantize(v, scale float64) int64 { return int64(math.Round(v * scale)) }

// appendDeltaColumn appends one column of values as zigzag-varint deltas
// of their fixed-point quantization.
func appendDeltaColumn(dst []byte, vals []float64, scale float64) []byte {
	prev := int64(0)
	for _, v := range vals {
		q := quantize(v, scale)
		dst = binary.AppendUvarint(dst, zigzag(q-prev))
		prev = q
	}
	return dst
}

// AppendUpdateBatch encodes b into a frame appended to dst. The encoding
// quantizes coordinates and times to the fixed-point wire resolution;
// node ids are carried exactly.
func AppendUpdateBatch(dst []byte, b *UpdateBatch) []byte {
	base := len(dst)
	dst = append(dst, 0, 0, 0, 0, byte(TypeUpdateBatch))
	dst = binary.AppendUvarint(dst, uint64(b.Len()))
	prev := int64(0)
	for _, id := range b.Node {
		dst = binary.AppendUvarint(dst, zigzag(int64(id)-prev))
		prev = int64(id)
	}
	dst = appendDeltaColumn(dst, b.X, coordScale)
	dst = appendDeltaColumn(dst, b.Y, coordScale)
	dst = appendDeltaColumn(dst, b.VX, coordScale)
	dst = appendDeltaColumn(dst, b.VY, coordScale)
	dst = appendDeltaColumn(dst, b.Time, timeScale)
	binary.LittleEndian.PutUint32(dst[base:], uint32(len(dst)-base-headerLen))
	return dst
}

// batchReader walks a batch payload varint by varint.
type batchReader struct {
	buf []byte
	off int
}

func (r *batchReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("wire: truncated batch varint at offset %d of %d", r.off, len(r.buf))
	}
	r.off += n
	return v, nil
}

// maxQ bounds the magnitude of any decoded fixed-point value. 2⁵² keeps
// every accepted value exactly representable in float64 — so
// decode→re-encode is the identity — while still covering ±2³⁶ m of
// space and ±2³² s of clock, far beyond any deployment.
const maxQ = 1 << 52

// readDeltaColumn decodes one delta column into dst (pre-sized to n).
// The varint loop is inlined — replicating encoding/binary.Uvarint's
// accept/reject behavior exactly — and walks local copies of the buffer
// and offset: at millions of varints per second, the generic decoder's
// per-call re-slice and the non-inlinable error-wrapping method are what
// the profile shows, not the byte shuffling itself.
func (r *batchReader) readDeltaColumn(dst []float64, scale float64) error {
	buf, off := r.buf, r.off
	inv := 1 / scale // power-of-two scale: multiplying is exact, like dividing
	prev := int64(0)
	for i := range dst {
		var u uint64
		var shift uint
		j := off
		for {
			if j >= len(buf) {
				return fmt.Errorf("wire: truncated batch varint at offset %d of %d", off, len(buf))
			}
			c := buf[j]
			j++
			if c < 0x80 {
				if j-off == binary.MaxVarintLen64 && c > 1 {
					return fmt.Errorf("wire: batch varint overflow at offset %d", off)
				}
				u |= uint64(c) << shift
				break
			}
			if j-off == binary.MaxVarintLen64 {
				return fmt.Errorf("wire: batch varint overflow at offset %d", off)
			}
			u |= uint64(c&0x7f) << shift
			shift += 7
		}
		off = j
		prev += unzigzag(u)
		if prev < -maxQ || prev > maxQ {
			return fmt.Errorf("wire: batch value %d out of range", prev)
		}
		dst[i] = float64(prev) * inv
	}
	r.off = off
	return nil
}

func growU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// DecodeUpdateBatchInto decodes a batch payload into b, reusing b's
// column capacity: once b has seen the largest batch on a connection,
// subsequent decodes allocate nothing. The record count is validated
// against MaxBatch and the payload length (every record costs at least
// six bytes) before any buffer grows, so a hostile count cannot force an
// allocation the payload does not pay for.
func DecodeUpdateBatchInto(b *UpdateBatch, payload []byte) error {
	r := batchReader{buf: payload}
	count, err := r.uvarint()
	if err != nil {
		return err
	}
	if count > MaxBatch {
		return fmt.Errorf("wire: batch count %d exceeds limit %d", count, MaxBatch)
	}
	n := int(count)
	if rest := len(payload) - r.off; rest < 6*n {
		return fmt.Errorf("wire: batch count %d does not fit %d payload bytes", n, rest)
	}
	b.Node = growU32(b.Node, n)
	b.X, b.Y = growF64(b.X, n), growF64(b.Y, n)
	b.VX, b.VY = growF64(b.VX, n), growF64(b.VY, n)
	b.Time = growF64(b.Time, n)
	prev := int64(0)
	buf := r.buf
	for i := 0; i < n; i++ {
		// Same inlined varint as readDeltaColumn (see its comment).
		var u uint64
		var shift uint
		off := r.off
		j := off
		for {
			if j >= len(buf) {
				return fmt.Errorf("wire: truncated batch varint at offset %d of %d", off, len(buf))
			}
			c := buf[j]
			j++
			if c < 0x80 {
				if j-off == binary.MaxVarintLen64 && c > 1 {
					return fmt.Errorf("wire: batch varint overflow at offset %d", off)
				}
				u |= uint64(c) << shift
				break
			}
			if j-off == binary.MaxVarintLen64 {
				return fmt.Errorf("wire: batch varint overflow at offset %d", off)
			}
			u |= uint64(c&0x7f) << shift
			shift += 7
		}
		r.off = j
		prev += unzigzag(u)
		if prev < 0 || prev > math.MaxUint32 {
			return fmt.Errorf("wire: batch node id %d out of range", prev)
		}
		b.Node[i] = uint32(prev)
	}
	for _, col := range [][]float64{b.X, b.Y, b.VX, b.VY} {
		if err := r.readDeltaColumn(col, coordScale); err != nil {
			return err
		}
	}
	if err := r.readDeltaColumn(b.Time, timeScale); err != nil {
		return err
	}
	if r.off != len(payload) {
		return fmt.Errorf("wire: %d trailing bytes in batch", len(payload)-r.off)
	}
	return nil
}

// FrameReader reads length-prefixed frames from one stream into a
// payload buffer it owns and reuses, so a server connection's read loop
// performs zero steady-state allocations. The payload returned by Next
// is valid only until the following Next call.
type FrameReader struct {
	rd  io.Reader
	hdr [headerLen]byte // struct-resident so io.ReadFull cannot heap-escape it
	buf []byte
}

// NewFrameReader returns a frame reader over rd.
func NewFrameReader(rd io.Reader) *FrameReader {
	return &FrameReader{rd: rd}
}

// Next reads one frame and returns its type and payload. The payload
// aliases the reader's internal buffer. Errors match ReadFrame's: io.EOF
// at a clean end of stream, io.ErrUnexpectedEOF mid-frame.
func (fr *FrameReader) Next() (Type, []byte, error) {
	if _, err := io.ReadFull(fr.rd, fr.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(fr.hdr[:4])
	if n > MaxPayload {
		return 0, nil, fmt.Errorf("wire: payload length %d exceeds limit", n)
	}
	t := Type(fr.hdr[4])
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	payload := fr.buf[:n]
	if _, err := io.ReadFull(fr.rd, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return t, payload, nil
}
