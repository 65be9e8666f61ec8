// Package cqserver implements the first layer of the LIRA architecture:
// the mobile CQ server. The server ingests position updates through a
// bounded input queue, maintains the motion table and the statistics grid,
// evaluates registered range CQs over dead-reckoned positions, and runs
// the LIRA adaptation cycle — THROTLOOP to pick the throttle fraction,
// GRIDREDUCE to partition the space, and GREEDYINCREMENT to set the update
// throttlers — publishing the result to the base-station layer.
package cqserver

import (
	"fmt"
	"math"
	"sort"
	"time"

	"lira/internal/controlplane"
	"lira/internal/cqindex"
	"lira/internal/fmodel"
	"lira/internal/geo"
	"lira/internal/history"
	"lira/internal/motion"
	"lira/internal/par"
	"lira/internal/partition"
	"lira/internal/spans"
	"lira/internal/statgrid"
	"lira/internal/telemetry"
	"lira/internal/throtloop"
	"lira/internal/throttler"
)

// Update is one position-update message from a mobile node.
type Update struct {
	Node   int
	Report motion.Report
}

// Config parameterizes a server.
type Config struct {
	// Space is the monitored area.
	Space geo.Rect
	// Nodes is the number of mobile nodes the server tracks.
	Nodes int
	// Alpha is the statistics-grid resolution. Zero selects the paper's
	// rule α = 2^⌊log₂(10·√L)⌋.
	Alpha int
	// L is the number of shedding regions.
	L int
	// QueueSize is the input queue bound B.
	QueueSize int
	// IndexCells is the side cell count of the query-evaluation index.
	// Zero selects a density-appropriate default.
	IndexCells int
	// Curve is the update reduction function used by the optimizer.
	Curve *fmodel.Curve
	// Fairness is the fairness threshold Δ⇔.
	Fairness float64
	// UseSpeed enables the §3.1.2 speed factor.
	UseSpeed bool
	// HistoryPerNode enables the report history for snapshot/historic
	// queries — the workload the fairness threshold exists for (§3.1.1).
	// It bounds retained reports per node; 0 disables history.
	HistoryPerNode int
	// ProtectQueries enables the query-protective drill-down extension
	// (see partition.Config.ProtectQueries); 0 is the paper's algorithm.
	ProtectQueries float64
	// Telemetry, when non-nil, receives hot-path metrics (Evaluate stage
	// latencies, queue depth, adaptation timings) and decision-journal
	// records for every THROTLOOP / GRIDREDUCE / GREEDYINCREMENT action.
	// Telemetry is passive: server behavior and output are identical with
	// or without it.
	Telemetry *telemetry.Hub
}

// Server is a mobile CQ server.
type Server struct {
	Intake

	cfg     Config
	table   *motion.Table
	grid    *statgrid.Grid
	index   *cqindex.Grid
	plane   *controlplane.Plane
	queries []geo.Rect

	// Scratch buffers for query evaluation, reused across rounds: the
	// predicted positions, the active mask, and the per-query result
	// slices (whose backing arrays persist between Evaluate calls).
	predicted []geo.Point
	active    []bool
	results   [][]int

	// Hot-path state hoisted out of Evaluate so the steady state performs
	// zero allocations: the motion table's column view, the evaluation
	// timestamp the chunk workers read, and the chunk-worker funcs bound
	// once at construction (a closure literal inside Evaluate would
	// allocate on every call).
	cols      motion.Columns
	evalNow   float64
	predictFn func(shard, lo, hi int)
	scanFn    func(shard, lo, hi int)

	// predNow is the instant predicted and active were last filled at;
	// predOK says they still describe the motion table. A Drain that
	// applied records, an Apply, or a degraded-mode switch clears it, so
	// ObserveSelf reuses a pass only when re-running it would produce the
	// same bits. obsPos/obsSpd are ObserveSelf's pooled sample.
	predNow float64
	predOK  bool
	obsPos  []geo.Point
	obsSpd  []float64

	history *history.Store
	applied int64

	// degradedEval switches Evaluate to the prediction-only refresh (the
	// admission ladder's critical rung). Single-caller, like Evaluate.
	degradedEval bool

	tel *serverTelemetry
}

// serverTelemetry holds the server's pre-resolved metric pointers so hot
// paths pay one nil check plus one atomic per event, never a registry
// lookup. Nil when no Hub is configured.
type serverTelemetry struct {
	hub *telemetry.Hub

	evalHist    *telemetry.Histogram // lira_evaluate_seconds
	predictHist *telemetry.Histogram // lira_evaluate_predict_seconds
	scanHist    *telemetry.Histogram // lira_evaluate_scan_seconds

	gridNodes   *telemetry.Gauge // lira_statgrid_nodes
	gridQueries *telemetry.Gauge // lira_statgrid_queries

	applied *telemetry.Counter // lira_updates_applied_total
	evals   *telemetry.Counter // lira_evaluations_total
}

func newServerTelemetry(hub *telemetry.Hub) *serverTelemetry {
	if hub == nil {
		return nil
	}
	r := hub.Registry
	return &serverTelemetry{
		hub:         hub,
		evalHist:    r.Histogram("lira_evaluate_seconds", nil),
		predictHist: r.Histogram("lira_evaluate_predict_seconds", nil),
		scanHist:    r.Histogram("lira_evaluate_scan_seconds", nil),
		gridNodes:   r.Gauge("lira_statgrid_nodes"),
		gridQueries: r.Gauge("lira_statgrid_queries"),
		applied:     r.Counter("lira_updates_applied_total"),
		evals:       r.Counter("lira_evaluations_total"),
	}
}

// Evaluate's fixed shard sizes: nodes per predict shard and queries per
// scan shard. Both decompositions depend only on the input sizes, so
// evaluation is deterministic at any worker count.
const (
	predictChunk = 2048
	queryChunk   = 8
)

// New validates cfg and returns a server.
func New(cfg Config) (*Server, error) {
	if cfg.Space.Empty() {
		return nil, fmt.Errorf("cqserver: empty space")
	}
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("cqserver: non-positive node count %d", cfg.Nodes)
	}
	if cfg.L <= 0 {
		return nil, fmt.Errorf("cqserver: non-positive region count %d", cfg.L)
	}
	if cfg.Curve == nil {
		return nil, fmt.Errorf("cqserver: nil update reduction curve")
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = partition.AlphaFor(cfg.L, 10)
	}
	if cfg.QueueSize == 0 {
		cfg.QueueSize = 1000
	}
	if cfg.IndexCells == 0 {
		cfg.IndexCells = 64
	}
	if cfg.Fairness == 0 {
		cfg.Fairness = throttler.NoFairness(cfg.Curve)
	}
	var hist *history.Store
	var err error
	if cfg.HistoryPerNode > 0 {
		hist, err = history.NewStore(cfg.Nodes, cfg.HistoryPerNode)
		if err != nil {
			return nil, err
		}
	}
	s := &Server{
		history:   hist,
		cfg:       cfg,
		table:     motion.NewTable(cfg.Nodes),
		grid:      statgrid.New(cfg.Space, cfg.Alpha),
		Intake:    NewIntake(cfg.QueueSize, cfg.Telemetry),
		index:     cqindex.NewGrid(cfg.Space, cfg.IndexCells),
		predicted: make([]geo.Point, cfg.Nodes),
		active:    make([]bool, cfg.Nodes),
		tel:       newServerTelemetry(cfg.Telemetry),
	}
	s.plane, err = controlplane.New(controlplane.Config{
		Env: controlplane.Env{
			L:              cfg.L,
			Curve:          cfg.Curve,
			Fairness:       cfg.Fairness,
			UseSpeed:       cfg.UseSpeed,
			ProtectQueries: cfg.ProtectQueries,
		},
		Stats:     s,
		Rates:     s.Queue(),
		QueueCap:  cfg.QueueSize,
		Telemetry: cfg.Telemetry,
	})
	if err != nil {
		return nil, err
	}
	s.cols = s.table.Columns()
	s.predictFn = s.predictRange
	s.scanFn = s.scanRange
	return s, nil
}

// Grid exposes the statistics grid (read-mostly; the experiment harness
// feeds it samples).
func (s *Server) Grid() *statgrid.Grid { return s.grid }

// StatsGrid implements controlplane.StatsSource: the grid an adaptation
// partitions. It is the same grid Grid returns; the second name exists so
// both engines satisfy the control plane with one spelling.
func (s *Server) StatsGrid() *statgrid.Grid { return s.grid }

// Table exposes the server's motion table.
func (s *Server) Table() *motion.Table { return s.table }

// Throttle exposes the THROTLOOP controller.
func (s *Server) Throttle() *throtloop.Controller { return s.plane.Throttle() }

// ControlPlane exposes the server's control plane, e.g. to swap the
// shedding policy.
func (s *Server) ControlPlane() *controlplane.Plane { return s.plane }

// RegisterQueries replaces the registered continuous range queries and
// refreshes the statistics grid's query census.
func (s *Server) RegisterQueries(qs []geo.Rect) {
	s.queries = append(s.queries[:0], qs...)
	s.grid.SetQueries(qs)
	// Resize the result table, keeping per-query backing arrays alive.
	for len(s.results) < len(qs) {
		s.results = append(s.results, nil)
	}
	s.results = s.results[:len(qs)]
}

// Queries returns the registered queries.
func (s *Server) Queries() []geo.Rect { return s.queries }

// Drain applies up to limit queued updates to the motion table and
// returns the number applied. A negative limit drains everything.
func (s *Server) Drain(limit int) int {
	a, b := s.Serve(limit)
	for _, seg := range [2][]Update{a, b} {
		for i := range seg {
			s.table.Apply(seg[i].Node, seg[i].Report)
			if s.history != nil {
				_ = s.history.Append(seg[i].Node, seg[i].Report)
			}
		}
	}
	applied := len(a) + len(b)
	s.applied += int64(applied)
	if applied > 0 {
		s.predOK = false
	}
	if s.tel != nil {
		s.tel.applied.Add(int64(applied))
	}
	return applied
}

// Apply installs an update directly, bypassing the queue (used by the
// harness's reference run, which models an infinitely provisioned server).
func (s *Server) Apply(u Update) {
	s.predOK = false
	s.table.Apply(u.Node, u.Report)
	if s.history != nil {
		// Ignore out-of-order reports: a reconnecting node may replay an
		// old report, which the live table tolerates but history rejects.
		_ = s.history.Append(u.Node, u.Report)
	}
	s.applied++
}

// History returns the report history store, or nil when history is
// disabled. Use it to answer snapshot and historic range queries.
func (s *Server) History() *history.Store { return s.history }

// Applied returns the number of updates integrated into the motion table.
func (s *Server) Applied() int64 { return s.applied }

// ObserveStatistics folds one sample of node positions and speeds into the
// statistics grid. In a deployment this is derived from the update stream
// or a grid-based index; the harness samples ground truth, which the paper
// also permits ("the statistics can easily be approximated using
// sampling").
func (s *Server) ObserveStatistics(positions []geo.Point, speeds []float64) {
	s.grid.Observe(positions, speeds)
	if s.tel != nil {
		// Gauges are stored here (single-writer) rather than registered as
		// funcs: the grid is not goroutine-safe, so scrape-time evaluation
		// would race with Observe.
		n, m := s.grid.Totals()
		s.tel.gridNodes.Set(n)
		s.tel.gridQueries.Set(m)
	}
}

// ObserveSelf folds the server's own beliefs at now into the statistics
// grid: every known node's clamped dead-reckoned position and reported
// speed, in id order, as one ObserveStatistics round (none when no node
// is known). An Evaluate at the same now already predicted the table as
// it still stands, so its pass is reused; otherwise the parallel predict
// pass runs here.
func (s *Server) ObserveSelf(now float64) {
	if !s.predOK || s.predNow != now {
		s.predict(now)
	}
	s.obsPos, s.obsSpd = s.obsPos[:0], s.obsSpd[:0]
	for i, ok := range s.active {
		if ok {
			s.obsPos = append(s.obsPos, s.predicted[i])
			s.obsSpd = append(s.obsSpd, math.Hypot(s.cols.VX[i], s.cols.VY[i]))
		}
	}
	if len(s.obsPos) > 0 {
		s.ObserveStatistics(s.obsPos, s.obsSpd)
	}
}

// predict fills predicted and active at now and stamps them for reuse.
func (s *Server) predict(now float64) {
	s.evalNow = now
	par.ForChunks(s.cfg.Nodes, predictChunk, s.predictFn)
	s.predNow, s.predOK = now, true
}

// Evaluate re-evaluates every registered query at time now against the
// dead-reckoned node positions. results[q] lists node ids in ascending
// order; the backing arrays are reused across calls, so callers must copy
// what they keep.
//
// Ascending node-id order is the canonical result order shared by every
// LIRA evaluator: it is independent of the index structure's internal
// layout, which is what lets the sharded server (internal/shard) promise
// results byte-identical to this one at any shard count, and the
// incremental index reuse buckets freely.
//
// The prediction pass is chunked across goroutines, and the per-query
// index scans run concurrently over the rebuilt CSR grid (which is
// read-only during scanning). Each query writes only its own result slot
// and each scan visits buckets in the serial order, so the output is
// byte-identical at any worker count.
func (s *Server) Evaluate(now float64) [][]int {
	if s.degradedEval {
		EvaluateDegraded(s.table, s.cfg.Space, s.queries, s.results, now, s.cfg.Telemetry)
		return s.results
	}
	// Wall-clock stamps are taken only with telemetry attached; durations
	// feed latency histograms and never the simulation state, preserving
	// determinism (see the telemetry package's contract). Spans likewise:
	// they are created only from this single-caller coordinator (never
	// inside the par workers), so span ids assign in deterministic order.
	var t0, t1, t2 time.Time
	var root, sp spans.Ctx
	if s.tel != nil {
		t0 = time.Now()
		root = s.tel.hub.Spans().Start("evaluate", "engine").Num("nodes", float64(s.cfg.Nodes)).Num("queries", float64(len(s.queries)))
		sp = root.Child("predict", "engine")
	}
	s.predict(now)
	if s.tel != nil {
		t1 = time.Now()
		sp.End()
		sp = root.Child("scan", "engine")
	}
	s.index.Rebuild(s.predicted, s.active)
	par.ForChunks(len(s.queries), queryChunk, s.scanFn)
	if s.tel != nil {
		t2 = time.Now()
		sp.End()
		root.End()
		s.tel.predictHist.Observe(t1.Sub(t0).Seconds())
		s.tel.scanHist.Observe(t2.Sub(t1).Seconds())
		s.tel.evalHist.Observe(t2.Sub(t0).Seconds())
		s.tel.evals.Inc()
	}
	return s.results
}

// predictRange is the predict-phase chunk worker: it streams the motion
// table's columns — five contiguous float64 slices — instead of loading
// per-node report structs, and writes the clamped dead-reckoned position
// plus the active mask for [lo, hi). The arithmetic is exactly
// Report.Predict's, so results are bit-identical to the per-id path.
func (s *Server) predictRange(_, lo, hi int) {
	now := s.evalNow
	cols := s.cols
	for i := lo; i < hi; i++ {
		ok := cols.Known[i]
		s.active[i] = ok
		if ok {
			s.predicted[i] = s.cfg.Space.ClampPoint(cols.Predict(i, now))
		}
	}
}

// scanRange is the scan-phase chunk worker: each query in [lo, hi) fills
// its own pooled result slice via the index's append API — no per-query
// callback closure, no per-round allocation once the backing arrays have
// grown to their working size.
func (s *Server) scanRange(_, lo, hi int) {
	for qi := lo; qi < hi; qi++ {
		ids := s.index.QueryAppend(s.queries[qi], s.results[qi][:0])
		sort.Ints(ids)
		s.results[qi] = ids
	}
}

// EvaluateQuery answers query qi alone at time now into its result slot
// and returns that slot (see EvaluateOne).
func (s *Server) EvaluateQuery(now float64, qi int) []int {
	return EvaluateOne(s.table, s.cfg.Space, s.queries, s.results, qi, now, s.degradedEval)
}

// EvaluateOne is EvaluateQuery's body, shared by both engines: it
// rewrites results[qi] with the ids Evaluate would report for query qi at
// now, and returns it. Normally that is every known node whose clamped
// dead-reckoned position lies in the closed rect — the index scans' exact
// test — found by walking the motion table's columns in id order, so the
// ids come out ascending with no index and no sort. Degraded, it is
// EvaluateDegraded on that one slot. Registering a query therefore costs
// one pass over the table instead of a full Evaluate; it counts as no
// evaluation on the telemetry.
func EvaluateOne(table *motion.Table, space geo.Rect, queries []geo.Rect, results [][]int, qi int, now float64, degraded bool) []int {
	if degraded {
		EvaluateDegraded(table, space, queries[qi:qi+1], results[qi:qi+1], now, nil)
		return results[qi]
	}
	q, cols := queries[qi], table.Columns()
	ids := results[qi][:0]
	for i, ok := range cols.Known {
		if ok && q.ContainsClosed(space.ClampPoint(cols.Predict(i, now))) {
			ids = append(ids, i)
		}
	}
	results[qi] = ids
	return ids
}

// SetDegradedEval switches Evaluate to prediction-only mode (see
// EvaluateDegraded). Single-caller, like Evaluate.
func (s *Server) SetDegradedEval(on bool) {
	s.degradedEval = on
	s.predOK = false
}

// SetCompactionDeferred is a no-op on the unsharded server: its index is
// rebuilt in full every evaluation round, so there is no compaction debt
// to defer. It exists so both engines expose the admission ladder's shed
// seam.
func (s *Server) SetCompactionDeferred(bool) {}

// EvaluateDegraded is the critical-rung Evaluate, shared by both engines:
// each query's previous members are re-tested against the query rect at
// their dead-reckoned positions — departures drop out, but no index work
// and no scans run, so no new entrants are discovered. Accuracy degrades
// (results can only shrink between normal rounds); availability and
// result ordering do not. The containment test (clamped prediction,
// closed rect) matches the index scans' exactly, and ascending id order
// is preserved by filtering results in place, so the path answers
// bit-identically to a full evaluation whenever no node entered a query
// since the last normal round. It reads only the motion table, which is
// why the engines agree on it whatever their index and residency state.
//
// hub may be nil. The metrics are resolved by name per call rather than
// held pre-resolved: this runs once per tick and only at the critical
// rung.
func EvaluateDegraded(table *motion.Table, space geo.Rect, queries []geo.Rect, results [][]int, now float64, hub *telemetry.Hub) {
	var t0 time.Time
	if hub != nil {
		t0 = time.Now()
	}
	for qi, ids := range results {
		q := queries[qi]
		kept := ids[:0]
		for _, id := range ids {
			if p, ok := table.Predict(id, now); ok && q.ContainsClosed(space.ClampPoint(p)) {
				kept = append(kept, id)
			}
		}
		results[qi] = kept
	}
	if hub != nil {
		r := hub.Registry
		r.Histogram("lira_evaluate_seconds", nil).Observe(time.Since(t0).Seconds())
		r.Counter("lira_evaluations_total").Inc()
		r.Counter("lira_evaluate_degraded_total").Inc()
	}
}

// PredictedPosition returns the server's belief about a node's position.
func (s *Server) PredictedPosition(id int, now float64) (geo.Point, bool) {
	return s.table.Predict(id, now)
}

// Adaptation is the output of one LIRA adaptation cycle, ready for the
// base-station layer. It is the control plane's adaptation record; the
// alias keeps the historical cqserver.Adaptation name compiling.
type Adaptation = controlplane.Adaptation

// Adapt runs one adaptation cycle with an explicit throttle fraction z —
// the manually-set budget mode of §2.1. Use AdaptAuto for closed-loop
// control. The pipeline itself (GRIDREDUCE → GREEDYINCREMENT under the
// active policy) lives in internal/controlplane.
func (s *Server) Adapt(z float64) (*Adaptation, error) {
	return s.plane.Adapt(z)
}

// AdaptAuto measures the queue over the given window, steps THROTLOOP, and
// runs the adaptation cycle at the resulting throttle fraction.
func (s *Server) AdaptAuto(window float64) (*Adaptation, error) {
	return s.plane.AdaptAuto(window)
}

// EngineInfo is a point-in-time engine snapshot for introspection
// endpoints and operator tooling. Both engines report the same shape.
type EngineInfo struct {
	// Engine is the implementation name: "cqserver" or "shard".
	Engine string `json:"engine"`
	// Shards is the shard count (1 for the unsharded server).
	Shards int `json:"shards"`
	// QueueLen and QueueCap describe the input queue: one queue.Bounded
	// at any shard count, so both are exact, not per-shard aggregates.
	QueueLen int `json:"queue_len"`
	QueueCap int `json:"queue_cap"`
	// Dropped and Applied count shed and integrated updates.
	Dropped int64 `json:"dropped"`
	Applied int64 `json:"applied"`
	// Queries is the number of registered continuous queries.
	Queries int `json:"queries"`
	// Z is the current throttle fraction.
	Z float64 `json:"z"`
}

// Introspect returns a point-in-time engine snapshot.
func (s *Server) Introspect() EngineInfo {
	return EngineInfo{
		Engine:   "cqserver",
		Shards:   1,
		QueueLen: s.QueueLen(),
		QueueCap: s.QueueCap(),
		Dropped:  s.Dropped(),
		Applied:  s.applied,
		Queries:  len(s.queries),
		Z:        s.plane.Throttle().Z(),
	}
}
