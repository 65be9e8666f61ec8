// Package engine defines the neutral CQ-engine abstraction every layer
// above the servers programs against: the network service, the experiment
// harness, the simulators, and the benchmark drivers all accept an Engine
// instead of a concrete server type. Two implementations exist — the
// unsharded cqserver.Server and the spatially sharded shard.Server — and
// both promise byte-identical query results over the same ingest sequence,
// so callers treat the choice purely as an evaluation-parallelism knob.
//
// Admission and adaptation are uniform by construction: both
// implementations embed the same cqserver.Intake (one bounded input queue
// of size B, shed-oldest on overflow, the control plane's rate source)
// and delegate Adapt/AdaptAuto to an internal/controlplane Plane, so the
// queue accounting and the GRIDREDUCE → GREEDYINCREMENT wiring each exist
// exactly once regardless of which engine runs. The engines differ in
// Evaluate, the index, and who owns the statistics grid.
package engine

import (
	"lira/internal/controlplane"
	"lira/internal/cqserver"
	"lira/internal/geo"
	"lira/internal/history"
	"lira/internal/motion"
	"lira/internal/shard"
	"lira/internal/statgrid"
	"lira/internal/throtloop"
)

// Info is a point-in-time engine snapshot for introspection endpoints and
// operator tooling; both engines report the same shape.
type Info = cqserver.EngineInfo

// Engine is a mobile CQ evaluation engine: ingest, drain, evaluate, and
// the LIRA adaptation loop. All methods are single-caller (the owner's
// drive loop); netsvc serialises producers under its mutex.
type Engine interface {
	// RegisterQueries replaces the registered continuous range queries.
	RegisterQueries(qs []geo.Rect)
	// Queries returns the registered queries.
	Queries() []geo.Rect

	// IngestShedOldestColumns is the admission primitive, and the one
	// the wire feeds: records arrive as the parallel column slices a
	// decoded update batch already holds (all equal length) and survivors
	// scatter straight into queue slots; on overflow the oldest queued
	// records are shed to admit the freshest. It returns how many were
	// shed; a batch of n counts exactly n arrivals.
	IngestShedOldestColumns(nodes []uint32, xs, ys, vxs, vys, times []float64) int
	// IngestShedOldest is the scalar helper over the same policy — one
	// record, identical accounting — for callers that produce reports
	// one at a time (plan.Simulate). The flag reports a shed.
	IngestShedOldest(u cqserver.Update) bool
	// Apply installs an update directly, bypassing the queue (the
	// harness's infinitely provisioned reference path).
	Apply(u cqserver.Update)
	// Drain applies up to limit queued updates (negative: all).
	Drain(limit int) int

	// Evaluate re-evaluates every query at time now, ids ascending.
	Evaluate(now float64) [][]int
	// SetDegradedEval switches Evaluate to prediction-only mode while on
	// (the admission ladder's critical rung): each query's previous
	// members are refreshed by dead reckoning and departures dropped, but
	// no index maintenance or fragment scans run and no new entrants are
	// discovered — accuracy degrades, availability does not. Reversible;
	// both engines produce identical degraded results over the same prior
	// results. Single-caller, like Evaluate.
	SetDegradedEval(on bool)
	// SetCompactionDeferred defers debt-triggered index compaction while
	// on (the admission ladder's shed rung). A no-op on engines that
	// rebuild their index in full each round. Safe to call concurrently
	// with Evaluate's readers.
	SetCompactionDeferred(on bool)
	// PredictedPosition returns the engine's belief about a node.
	PredictedPosition(id int, now float64) (geo.Point, bool)

	// ObserveStatistics folds one sampling round into the statistics grid.
	ObserveStatistics(positions []geo.Point, speeds []float64)
	// ObserveBusy accumulates busy time into the current rate window.
	ObserveBusy(busy float64)
	// StatsGrid returns the grid an adaptation partitions (the merged
	// view when sharded). It implements controlplane.StatsSource.
	StatsGrid() *statgrid.Grid

	// Adapt runs one adaptation cycle at throttle fraction z.
	Adapt(z float64) (*controlplane.Adaptation, error)
	// AdaptAuto measures the window, steps THROTLOOP, and adapts.
	AdaptAuto(window float64) (*controlplane.Adaptation, error)
	// ControlPlane exposes the engine's control plane (policy swaps).
	ControlPlane() *controlplane.Plane
	// Throttle exposes the THROTLOOP controller.
	Throttle() *throtloop.Controller

	// Table exposes the motion table.
	Table() *motion.Table
	// History returns the report history store, or nil when disabled.
	History() *history.Store
	// Applied returns the number of updates integrated so far.
	Applied() int64
	// Arrived returns the number of updates offered to the input queue
	// so far (admitted or shed). Together with Applied, Dropped, and
	// QueueLen it carries the engine's record-conservation invariant:
	// at quiescence Arrived == Applied + Dropped + QueueLen, provided
	// every record entered through the queue (Apply bypasses it and
	// counts only toward Applied).
	Arrived() int64
	// QueueLen and QueueCap describe the input queue, and Dropped counts
	// updates shed or rejected on overflow.
	QueueLen() int
	QueueCap() int
	Dropped() int64

	// Introspect returns a point-in-time engine snapshot.
	Introspect() Info
}

// Interface conformance: both servers are Engines.
var (
	_ Engine = (*cqserver.Server)(nil)
	_ Engine = (*shard.Server)(nil)
)

// New builds the engine selected by shards: the spatially sharded server
// for shards > 1, the unsharded server otherwise. cfg is interpreted
// exactly as cqserver.New interprets it (defaults included); when sharded
// it becomes shard.Config.Core.
func New(cfg cqserver.Config, shards int) (Engine, error) {
	if shards > 1 {
		return shard.New(shard.Config{Core: cfg, Shards: shards})
	}
	return cqserver.New(cfg)
}
