package cqserver

import (
	"lira/internal/geo"
	"lira/internal/motion"
	"lira/internal/queue"
	"lira/internal/telemetry"
)

// Intake is the engine's admission side: the paper's single bounded input
// queue of size B, its drop/arrival accounting, and the queue telemetry.
// Both engines embed it, so admission — the columnar primitive and its
// scalar helper, both shed-oldest — and the record-conservation counters
// exist once; the engines differ only in what Drain does with the
// records Serve hands back. The queue is also the control plane's rate
// source (λ, μ), exposed through Queue.
//
// Intake is single-caller, like the queue it wraps: the network layer
// serialises producers under its mutex.
type Intake struct {
	input *queue.Bounded[Update]

	// Pre-resolved metric pointers, nil without a hub.
	depth   *telemetry.Gauge   // lira_queue_depth
	dropped *telemetry.Counter // lira_queue_dropped_total
}

// NewIntake returns an intake bounded at size records, reporting to hub
// when non-nil.
func NewIntake(size int, hub *telemetry.Hub) Intake {
	in := Intake{input: queue.NewBounded[Update](size)}
	if hub != nil {
		in.depth = hub.Registry.Gauge("lira_queue_depth")
		in.dropped = hub.Registry.Counter("lira_queue_dropped_total")
	}
	return in
}

// observe publishes the queue's state after one admission or serve call:
// the drop counter catches up with the queue's own, the gauge tracks its
// length.
func (in *Intake) observe() {
	if in.depth == nil {
		return
	}
	if d := in.input.Dropped() - in.dropped.Value(); d > 0 {
		in.dropped.Add(d)
	}
	in.depth.Set(float64(in.input.Len()))
}

// Queue exposes the input queue for rate accounting.
func (in *Intake) Queue() *queue.Bounded[Update] { return in.input }

// IngestShedOldest enqueues an update, shedding the oldest on overflow to
// make room for the freshest; the flag reports whether a shed happened.
// This is the network layer's saturation policy — see
// queue.Bounded.OfferShedOldest.
func (in *Intake) IngestShedOldest(u Update) bool {
	shed := in.input.OfferShedOldest(u)
	in.observe()
	return shed
}

// IngestShedOldestColumns is the vectored IngestShedOldest: records
// arrive as the parallel column slices a decoded wire batch already
// holds, and each survivor is scattered directly into its ring slot — one
// write per record, no intermediate contiguous staging. All slices must
// have equal length; the shed count and λ accounting are identical to
// offering the records one at a time.
func (in *Intake) IngestShedOldestColumns(nodes []uint32, xs, ys, vxs, vys, times []float64) int {
	n := len(nodes)
	a, b, shed := in.input.ReserveShedOldestBulk(n)
	// When n exceeds the ring, only the trailing len(a)+len(b) records
	// survive admission; the reservation already counted the rest as shed.
	i := n - len(a) - len(b)
	for _, seg := range [2][]Update{a, b} {
		for j := range seg {
			seg[j] = Update{Node: int(nodes[i]), Report: motion.Report{
				Pos:  geo.Point{X: xs[i], Y: ys[i]},
				Vel:  geo.Vector{X: vxs[i], Y: vys[i]},
				Time: times[i],
			}}
			i++
		}
	}
	in.observe()
	return shed
}

// Serve dequeues up to limit updates (negative: all), oldest first, as up
// to two views into the queue's storage, valid until the next ingest.
// It is the engines' Drain primitive.
func (in *Intake) Serve(limit int) (a, b []Update) {
	a, b = in.input.ServeSegments(limit)
	in.observe()
	return a, b
}

// Arrived returns the total number of updates ever offered to the input
// queue (admitted or shed) — the record-conservation ledger's engine-side
// arrival count: Arrived == Applied + Dropped + QueueLen at quiescence,
// provided every update entered through the queue (Apply bypasses it and
// counts only toward Applied).
func (in *Intake) Arrived() int64 { return in.input.Arrived() }

// QueueLen returns the current input-queue length.
func (in *Intake) QueueLen() int { return in.input.Len() }

// QueueCap returns the input-queue bound B.
func (in *Intake) QueueCap() int { return in.input.Cap() }

// Dropped counts updates shed or rejected on queue overflow.
func (in *Intake) Dropped() int64 { return in.input.Dropped() }

// ObserveBusy accumulates busy time into the current rate window; see
// queue.Bounded.ObserveBusy.
func (in *Intake) ObserveBusy(busy float64) { in.input.ObserveBusy(busy) }
