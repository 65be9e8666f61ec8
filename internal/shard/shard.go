// Package shard implements the spatially sharded mobile CQ server: K
// shard cells aligned to the α×α statistics grid, each with a private
// statistics grid and an incrementally maintained query index, behind
// one bounded input queue and one global LIRA adaptation loop.
//
// The unsharded cqserver.Server is a single logical evaluator: one full
// index rebuild per evaluation. This package splits the monitored space
// into K vertical bands (Geometry) and distributes the evaluation over
// them. Admission is not partitioned: updates enter the same
// cqserver.Intake the unsharded server embeds — the paper's one queue of
// size B — and Drain routes each record to its band as it applies it to
// the shared motion table, so a single FIFO decides every node's last
// writer. Each shard's cqindex.Inc is kept current with
// insert/delete/move deltas, falling back to a full compaction only when
// the shard's delta debt exceeds DebtFactor times its population.
// Cross-shard queries are clipped into per-shard fragments; per-shard
// result lists are merged in shard order and canonicalized to ascending
// node id, the same order cqserver.Evaluate reports.
//
// # Determinism contract
//
// For one ingest sequence, query results are a pure function of the
// inputs and are byte-identical to the unsharded server's at every shard
// count: residency assigns each node to exactly one shard, fragments
// cover each query exactly once per shard, and the ascending-id merge
// erases shard layout from the output. Admission, shedding and the
// (λ, μ) THROTLOOP reads all come from the one input queue, so overload
// behaviour and z are the unsharded server's at any K. The adaptation's
// Δᵢ values are bit-identical to the unsharded server at K = 1 (the
// merged statistics reduce in shard order, degenerating to the identity)
// and seed-stable at any fixed K; at K > 1 they may differ from K = 1 in
// final ulps because cross-shard scalar sums reassociate floating-point
// addition. Concurrency never changes results: every parallel evaluation
// phase writes per-shard state merged in shard order (see package par).
package shard

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"lira/internal/controlplane"
	"lira/internal/cqindex"
	"lira/internal/cqserver"
	"lira/internal/geo"
	"lira/internal/history"
	"lira/internal/motion"
	"lira/internal/par"
	"lira/internal/partition"
	"lira/internal/spans"
	"lira/internal/statgrid"
	"lira/internal/throtloop"
	"lira/internal/throttler"
)

// Config parameterizes a sharded server.
type Config struct {
	// Core carries the LIRA pipeline parameters, interpreted exactly as
	// cqserver.New interprets them (defaults included). Core.QueueSize is
	// the input queue's bound B at every shard count.
	Core cqserver.Config
	// Shards is the shard count K ∈ [1, α]; zero selects 1. Shard cells
	// are vertical bands of statistics-grid columns, so K may not exceed
	// the grid resolution.
	Shards int
	// DebtFactor is the incremental-index rebuild threshold: a shard
	// compacts its index when accumulated structural deltas exceed
	// DebtFactor × residents. Zero selects 0.5; negative compacts every
	// evaluation (the always-rebuild reference mode).
	DebtFactor float64
}

// shardState is the per-shard slice of the server: the shard's cell, its
// private statistics grid, incremental index, resident list, query
// fragments, and evaluation scratch.
type shardState struct {
	cell  geo.Rect
	grid  *statgrid.Grid
	index *cqindex.Inc

	residents []int32

	// Structure-of-arrays mirror of the residents' reports, parallel to
	// residents slot for slot (dense, swap-removed in lockstep). The
	// phase-1 dead-reckoning sweep streams these contiguous columns
	// instead of gathering 40-byte report structs from the shared table
	// by node id — the shard-order gather is what made the old loop
	// cache-hostile. The mirror is updated wherever the table is, so its
	// values are bit-identical to the table's.
	resX, resY   []float64
	resVX, resVY []float64
	resT         []float64

	frags []frag
	// fragBuf[i] collects the ids frag i matched this evaluation round;
	// backing arrays are reused across rounds.
	fragBuf [][]int

	// outbox collects residents whose predicted position left the cell
	// this round; migrations apply serially in shard order.
	outbox []migration

	// The shard's observation sample (routed by ObserveStatistics or
	// built by ObserveSelf), reused across rounds.
	obsPos []geo.Point
	obsSpd []float64
}

// frag is one per-shard fragment of a registered query: the query index
// and the closed clip of its rect to the shard cell (used to narrow the
// bucket scan; containment is tested against the original rect).
type frag struct {
	q      int32
	bounds geo.Rect
}

type migration struct {
	id int32
	p  geo.Point
}

// Server is a spatially sharded mobile CQ server. All methods are
// single-caller (the owner's drive loop).
type Server struct {
	cqserver.Intake

	cfg  Config
	geom *Geometry
	k    int

	shards []*shardState

	table *motion.Table

	// shardOf/resSlot are the residency maps: the shard currently owning
	// each node (-1 until its first report) and the node's slot in that
	// shard's resident list.
	shardOf []int32
	resSlot []int32

	merged  *statgrid.Grid // merge target; also holds the query census
	plane   *controlplane.Plane
	history *history.Store

	queries []geo.Rect
	results [][]int

	applied int64

	// Hot-path state hoisted out of Evaluate and the observation calls so
	// the steady state performs zero allocations: the timestamp the phase
	// and ObserveSelf workers read, the per-phase worker funcs bound once
	// at construction (closure literals inside Evaluate would allocate
	// every call), and the compaction tally phase 3 accumulates.
	evalNow     float64
	phase1Fn    func(shard, lo, hi int)
	phase3Fn    func(shard, lo, hi int)
	obsFn       func(shard, lo, hi int)
	selfFn      func(shard, lo, hi int)
	compactions atomic.Int64

	// Admission-ladder seams: deferCompact suppresses phase 3's
	// debt-triggered compaction (atomic — the phase workers read it);
	// degraded switches Evaluate to the prediction-only refresh
	// (single-caller, like Evaluate itself).
	deferCompact atomic.Bool
	degraded     bool

	tel *shardTelemetry

	// Pre-built runtime/pprof label contexts, one per shard per phase
	// (lira_phase=predict|scan, lira_shard=<i>), plus the clearing
	// context. Built once at construction when telemetry is attached;
	// SetGoroutineLabels with a pre-built context allocates nothing, so
	// the phase workers stay on the zero-alloc hot-path budget.
	lblPredict []context.Context
	lblScan    []context.Context
	lblClear   context.Context
}

// evaluate decomposes shards one per par chunk.
const shardChunk = 1

// New validates cfg and returns a sharded server.
func New(cfg Config) (*Server, error) {
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	core := cfg.Core
	if core.Space.Empty() {
		return nil, fmt.Errorf("shard: empty space")
	}
	if core.Nodes <= 0 {
		return nil, fmt.Errorf("shard: non-positive node count %d", core.Nodes)
	}
	if core.L <= 0 {
		return nil, fmt.Errorf("shard: non-positive region count %d", core.L)
	}
	if core.Curve == nil {
		return nil, fmt.Errorf("shard: nil update reduction curve")
	}
	if core.Alpha == 0 {
		core.Alpha = partition.AlphaFor(core.L, 10)
	}
	if core.QueueSize == 0 {
		core.QueueSize = 1000
	}
	if core.IndexCells == 0 {
		core.IndexCells = 64
	}
	if core.Fairness == 0 {
		core.Fairness = throttler.NoFairness(core.Curve)
	}
	if cfg.DebtFactor == 0 {
		cfg.DebtFactor = 0.5
	}
	cfg.Core = core
	geom, err := NewGeometry(core.Space, core.Alpha, cfg.Shards)
	if err != nil {
		return nil, err
	}
	var hist *history.Store
	if core.HistoryPerNode > 0 {
		hist, err = history.NewStore(core.Nodes, core.HistoryPerNode)
		if err != nil {
			return nil, err
		}
	}
	k := cfg.Shards
	s := &Server{
		Intake:  cqserver.NewIntake(core.QueueSize, core.Telemetry),
		cfg:     cfg,
		geom:    geom,
		k:       k,
		shards:  make([]*shardState, k),
		table:   motion.NewTable(core.Nodes),
		shardOf: make([]int32, core.Nodes),
		resSlot: make([]int32, core.Nodes),
		merged:  statgrid.New(core.Space, core.Alpha),
		history: hist,
	}
	for i := range s.shardOf {
		s.shardOf[i] = -1
	}
	for i := 0; i < k; i++ {
		s.shards[i] = &shardState{
			cell:  geom.Cell(i),
			grid:  statgrid.New(core.Space, core.Alpha),
			index: cqindex.NewInc(core.Space, core.IndexCells, core.Nodes),
		}
	}
	s.tel = newShardTelemetry(core.Telemetry, k)
	if s.tel != nil {
		s.lblClear = context.Background()
		s.lblPredict = make([]context.Context, k)
		s.lblScan = make([]context.Context, k)
		for i := 0; i < k; i++ {
			si := strconv.Itoa(i)
			s.lblPredict[i] = pprof.WithLabels(s.lblClear, pprof.Labels("lira_phase", "predict", "lira_shard", si))
			s.lblScan[i] = pprof.WithLabels(s.lblClear, pprof.Labels("lira_phase", "scan", "lira_shard", si))
		}
	}
	s.plane, err = controlplane.New(controlplane.Config{
		Env: controlplane.Env{
			L:              core.L,
			Curve:          core.Curve,
			Fairness:       core.Fairness,
			UseSpeed:       core.UseSpeed,
			ProtectQueries: core.ProtectQueries,
		},
		Stats:     s,
		Rates:     s.Queue(),
		QueueCap:  core.QueueSize,
		Telemetry: core.Telemetry,
	})
	if err != nil {
		return nil, err
	}
	s.phase1Fn = s.predictShard
	s.phase3Fn = s.scanShard
	s.obsFn = s.observeShard
	s.selfFn = s.selfShard
	return s, nil
}

// Shards returns the shard count K.
func (s *Server) Shards() int { return s.k }

// Geometry returns the shard geometry.
func (s *Server) Geometry() *Geometry { return s.geom }

// Table exposes the shared motion table.
func (s *Server) Table() *motion.Table { return s.table }

// Throttle exposes the global THROTLOOP controller.
func (s *Server) Throttle() *throtloop.Controller { return s.plane.Throttle() }

// ControlPlane exposes the server's control plane, e.g. to swap the
// shedding policy.
func (s *Server) ControlPlane() *controlplane.Plane { return s.plane }

// History returns the report history store, or nil when disabled.
func (s *Server) History() *history.Store { return s.history }

// Applied returns the number of updates drained or applied directly.
func (s *Server) Applied() int64 { return s.applied }

// Queries returns the registered queries.
func (s *Server) Queries() []geo.Rect { return s.queries }

// Drain applies up to limit queued updates to the motion table, oldest
// first, and returns the number applied. A negative limit drains
// everything. Each record is routed to its band here, on the single
// drain caller, rather than at admission.
func (s *Server) Drain(limit int) int {
	a, b := s.Serve(limit)
	for _, seg := range [2][]cqserver.Update{a, b} {
		for i := range seg {
			s.apply(seg[i])
		}
	}
	applied := len(a) + len(b)
	s.applied += int64(applied)
	if s.tel != nil {
		s.tel.applied.Add(int64(applied))
		// Refresh the per-shard gauges here as well as in Evaluate:
		// a deployment with no registered queries drains without ever
		// evaluating, and residency still moves with the reports.
		for si, sh := range s.shards {
			s.tel.shardResidents[si].Set(float64(len(sh.residents)))
		}
	}
	return applied
}

// Apply installs an update directly, bypassing the queue (the harness's
// infinitely provisioned reference path).
func (s *Server) Apply(u cqserver.Update) {
	s.apply(u)
	s.applied++
}

func (s *Server) apply(u cqserver.Update) {
	id := u.Node
	s.table.Apply(id, u.Report)
	if s.history != nil {
		// History orders by report time and rejects regressions itself.
		_ = s.history.Append(id, u.Report)
	}
	// Residency follows the report position; Evaluate re-homes the node
	// if its dead-reckoned position later drifts across a shard boundary.
	target := int32(s.geom.ShardFor(s.cfg.Core.Space.ClampPoint(u.Report.Pos)))
	cur := s.shardOf[id]
	if cur == target {
		s.setResidentReport(cur, int32(id), u.Report)
		return
	}
	if cur >= 0 {
		s.removeResident(cur, int32(id))
		s.shards[cur].index.Delete(id)
		if s.tel != nil {
			s.tel.migrations.Inc()
		}
	}
	s.addResident(target, int32(id), u.Report)
}

// setResidentReport refreshes the SoA mirror slot of an already-resident
// node after its table report changed.
func (s *Server) setResidentReport(shard, id int32, rep motion.Report) {
	sh := s.shards[shard]
	slot := s.resSlot[id]
	sh.resX[slot], sh.resY[slot] = rep.Pos.X, rep.Pos.Y
	sh.resVX[slot], sh.resVY[slot] = rep.Vel.X, rep.Vel.Y
	sh.resT[slot] = rep.Time
}

func (s *Server) addResident(shard, id int32, rep motion.Report) {
	sh := s.shards[shard]
	s.resSlot[id] = int32(len(sh.residents))
	sh.residents = append(sh.residents, id)
	sh.resX, sh.resY = append(sh.resX, rep.Pos.X), append(sh.resY, rep.Pos.Y)
	sh.resVX, sh.resVY = append(sh.resVX, rep.Vel.X), append(sh.resVY, rep.Vel.Y)
	sh.resT = append(sh.resT, rep.Time)
	s.shardOf[id] = shard
}

func (s *Server) removeResident(shard, id int32) {
	sh := s.shards[shard]
	slot := s.resSlot[id]
	last := int32(len(sh.residents) - 1)
	moved := sh.residents[last]
	sh.residents[slot] = moved
	s.resSlot[moved] = slot
	sh.residents = sh.residents[:last]
	sh.resX[slot], sh.resY[slot] = sh.resX[last], sh.resY[last]
	sh.resVX[slot], sh.resVY[slot] = sh.resVX[last], sh.resVY[last]
	sh.resT[slot] = sh.resT[last]
	sh.resX, sh.resY = sh.resX[:last], sh.resY[:last]
	sh.resVX, sh.resVY = sh.resVX[:last], sh.resVY[:last]
	sh.resT = sh.resT[:last]
}

// RegisterQueries replaces the registered continuous range queries,
// refreshes the merged grid's query census, and recomputes the per-shard
// query fragments.
func (s *Server) RegisterQueries(qs []geo.Rect) {
	s.queries = append(s.queries[:0], qs...)
	s.merged.SetQueries(qs)
	for len(s.results) < len(qs) {
		s.results = append(s.results, nil)
	}
	s.results = s.results[:len(qs)]
	for si, sh := range s.shards {
		sh.frags = sh.frags[:0]
		for qi, q := range qs {
			if bounds, ok := s.geom.Fragment(si, q); ok {
				sh.frags = append(sh.frags, frag{q: int32(qi), bounds: bounds})
			}
		}
		for len(sh.fragBuf) < len(sh.frags) {
			sh.fragBuf = append(sh.fragBuf, nil)
		}
		sh.fragBuf = sh.fragBuf[:len(sh.frags)]
	}
}

// ObserveStatistics routes one sampling round of node positions and
// speeds into the per-shard statistics grids. Every shard folds a round
// every call — possibly an empty one — so the grids stay merge-compatible
// (statgrid.MergeObservations requires equal round counts).
func (s *Server) ObserveStatistics(positions []geo.Point, speeds []float64) {
	if len(positions) != len(speeds) {
		panic("shard: positions and speeds length mismatch")
	}
	for _, sh := range s.shards {
		sh.obsPos = sh.obsPos[:0]
		sh.obsSpd = sh.obsSpd[:0]
	}
	for i, p := range positions {
		sh := s.shards[s.geom.ShardFor(p)]
		sh.obsPos = append(sh.obsPos, p)
		sh.obsSpd = append(sh.obsSpd, speeds[i])
	}
	s.observeShards(s.obsFn)
}

// ObserveSelf folds the server's own beliefs at now into the per-shard
// grids: every known node's clamped dead-reckoned position and reported
// speed, as the sample an id-ordered ObserveStatistics round would route
// (none while no record has been applied, i.e. no node is known). Each
// shard builds its own sample in parallel from the motion table's
// columns, so no snapshot is routed through one goroutine.
func (s *Server) ObserveSelf(now float64) {
	if s.applied == 0 {
		return
	}
	s.evalNow = now
	s.observeShards(s.selfFn)
}

// observeShards runs one observation worker per shard, then publishes
// the grid gauges.
func (s *Server) observeShards(fn func(shard, lo, hi int)) {
	par.ForChunks(s.k, shardChunk, fn)
	if s.tel != nil {
		var totalN, totalM float64
		for si, sh := range s.shards {
			n, m := sh.grid.Totals()
			s.tel.shardNodes[si].Set(n)
			totalN += n
			totalM += m
		}
		s.tel.gridNodes.Set(totalN)
		s.tel.gridQueries.Set(totalM)
	}
}

// Evaluate re-evaluates every registered query at time now against the
// dead-reckoned node positions. results[q] lists node ids in ascending
// order — byte-identical to cqserver.Evaluate over the same ingest
// sequence at any shard count; the backing arrays are reused across
// calls, so callers must copy what they keep.
//
// The round has four phases: (1) each shard, in parallel, dead-reckons
// its residents and refreshes its incremental index in place, collecting
// boundary-crossers into an outbox; (2) migrations apply serially in
// shard order; (3) each shard, in parallel, compacts its index if the
// delta debt crossed the threshold and scans its query fragments; (4)
// per-shard fragment results merge in shard order and sort ascending.
// Phases 1 and 3 write only per-shard state, so the output is identical
// at any worker count.
func (s *Server) Evaluate(now float64) [][]int {
	if s.degraded {
		// Touches neither the per-shard indexes nor residency; both
		// re-converge on the next normal round (phase 1 re-Puts every
		// resident and migrations re-home movers).
		cqserver.EvaluateDegraded(s.table, s.cfg.Core.Space, s.queries, s.results, now, s.cfg.Core.Telemetry)
		return s.results
	}
	// Wall stamps and spans exist only with telemetry attached. Spans are
	// created solely from this coordinator goroutine — never inside the
	// par phase workers, whose scheduling order is nondeterministic — so
	// span ids assign in a reproducible order; the workers are attributed
	// via runtime/pprof labels instead (lira_phase / lira_shard).
	var t0, t1, t2 time.Time
	var root, sp spans.Ctx
	if s.tel != nil {
		t0 = time.Now()
		root = s.tel.hub.Spans().Start("evaluate", "engine").Num("k", float64(s.k)).Num("queries", float64(len(s.queries)))
		sp = root.Child("phase1_predict", "engine")
	}
	s.evalNow = now
	// Phase 1: per-shard dead reckoning + in-place index refresh.
	par.ForChunks(s.k, shardChunk, s.phase1Fn)
	if s.tel != nil {
		sp.End()
		sp = root.Child("phase2_migrate", "engine")
	}
	// Phase 2: serial cross-shard migrations, in shard order. The moved
	// node's report is read back from the motion table: migration only
	// re-homes residency, the report itself is unchanged.
	migrated := 0
	for si, sh := range s.shards {
		for _, m := range sh.outbox {
			s.removeResident(int32(si), m.id)
			sh.index.Delete(int(m.id))
			target := int32(s.geom.ShardFor(m.p))
			rep, _ := s.table.Report(int(m.id))
			s.addResident(target, m.id, rep)
			s.shards[target].index.Put(int(m.id), m.p)
			migrated++
		}
	}
	if s.tel != nil {
		t1 = time.Now()
		sp.Num("migrated", float64(migrated)).End()
		sp = root.Child("phase3_scan", "engine")
		if migrated > 0 {
			s.tel.migrations.Add(int64(migrated))
		}
	}
	// Phase 3: debt-triggered compaction + fragment scans.
	s.compactions.Store(0)
	par.ForChunks(s.k, shardChunk, s.phase3Fn)
	if s.tel != nil {
		sp.End()
		sp = root.Child("phase4_merge", "engine")
	}
	// Phase 4: deterministic merge — shard order, then ascending ids.
	for qi := range s.results {
		s.results[qi] = s.results[qi][:0]
	}
	for _, sh := range s.shards {
		for fi, f := range sh.frags {
			s.results[f.q] = append(s.results[f.q], sh.fragBuf[fi]...)
		}
	}
	for qi := range s.results {
		sort.Ints(s.results[qi])
	}
	if s.tel != nil {
		t2 = time.Now()
		sp.End()
		root.End()
		if c := s.compactions.Load(); c > 0 {
			s.tel.compactions.Add(c)
		}
		s.tel.predictHist.Observe(t1.Sub(t0).Seconds())
		s.tel.scanHist.Observe(t2.Sub(t1).Seconds())
		s.tel.evalHist.Observe(t2.Sub(t0).Seconds())
		s.tel.evals.Inc()
		for si, sh := range s.shards {
			s.tel.shardResidents[si].Set(float64(len(sh.residents)))
		}
	}
	return s.results
}

// predictShard is the phase-1 worker for one shard: it dead-reckons the
// shard's residents by streaming the SoA mirror columns (the arithmetic
// is exactly Report.Predict's, and the mirror holds the table's bits, so
// predictions are bit-identical to the table path), refreshes the
// incremental index in place, and collects boundary-crossers into the
// shard's outbox.
func (s *Server) predictShard(shard, _, _ int) {
	// Attribute this worker's CPU samples by phase and shard. The labels
	// are pre-built contexts (no allocation) and cleared on return so a
	// pooled par worker never leaks a stale label to its next chunk.
	if s.tel != nil {
		pprof.SetGoroutineLabels(s.lblPredict[shard])
		defer pprof.SetGoroutineLabels(s.lblClear)
	}
	sh := s.shards[shard]
	space := s.cfg.Core.Space
	now := s.evalNow
	sh.outbox = sh.outbox[:0]
	for si, id := range sh.residents {
		dt := now - sh.resT[si]
		p := space.ClampPoint(geo.Point{
			X: sh.resX[si] + sh.resVX[si]*dt,
			Y: sh.resY[si] + sh.resVY[si]*dt,
		})
		if s.geom.ShardFor(p) == shard {
			sh.index.Put(int(id), p)
		} else {
			sh.outbox = append(sh.outbox, migration{id: id, p: p})
		}
	}
}

// scanShard is the phase-3 worker for one shard: debt-triggered index
// compaction, then each query fragment fills its pooled buffer via the
// index's append API — no per-fragment callback closure.
func (s *Server) scanShard(shard, _, _ int) {
	if s.tel != nil {
		pprof.SetGoroutineLabels(s.lblScan[shard])
		defer pprof.SetGoroutineLabels(s.lblClear)
	}
	sh := s.shards[shard]
	// The admission ladder's shed rung defers compaction: the incremental
	// index stays exact (deltas keep applying in place), debt just
	// accumulates until the flag clears and the next scan pays it off.
	if !s.deferCompact.Load() && float64(sh.index.Debt()) > s.cfg.DebtFactor*float64(len(sh.residents)) {
		sh.index.Compact()
		s.compactions.Add(1)
	}
	for fi, f := range sh.frags {
		sh.fragBuf[fi] = sh.index.QueryInAppend(f.bounds, s.queries[f.q], sh.fragBuf[fi][:0])
	}
}

// observeShard folds one shard's routed observation sample into its
// private statistics grid.
func (s *Server) observeShard(shard, _, _ int) {
	sh := s.shards[shard]
	sh.grid.Observe(sh.obsPos, sh.obsSpd)
}

// selfShard is ObserveSelf's worker for one shard: it walks the motion
// table's columns in id order, keeps each known node whose clamped
// prediction the shard owns — the order and values ObserveStatistics
// would have routed to it — and folds that sample.
func (s *Server) selfShard(shard, _, _ int) {
	sh := s.shards[shard]
	space := s.cfg.Core.Space
	cols := s.table.Columns()
	now := s.evalNow
	sh.obsPos, sh.obsSpd = sh.obsPos[:0], sh.obsSpd[:0]
	for id, ok := range cols.Known {
		if !ok {
			continue
		}
		if p := space.ClampPoint(cols.Predict(id, now)); s.geom.ShardFor(p) == shard {
			sh.obsPos = append(sh.obsPos, p)
			sh.obsSpd = append(sh.obsSpd, math.Hypot(cols.VX[id], cols.VY[id]))
		}
	}
	sh.grid.Observe(sh.obsPos, sh.obsSpd)
}

// EvaluateQuery answers query qi alone at time now into its result slot
// and returns that slot (see cqserver.EvaluateOne). Residency and the
// per-shard indexes are left to the next Evaluate.
func (s *Server) EvaluateQuery(now float64, qi int) []int {
	return cqserver.EvaluateOne(s.table, s.cfg.Core.Space, s.queries, s.results, qi, now, s.degraded)
}

// SetDegradedEval switches Evaluate to prediction-only mode (see
// cqserver.EvaluateDegraded). Single-caller, like Evaluate.
func (s *Server) SetDegradedEval(on bool) { s.degraded = on }

// SetCompactionDeferred defers phase 3's debt-triggered index compaction
// while on (the admission ladder's shed rung). Safe to call concurrently
// with the phase workers.
func (s *Server) SetCompactionDeferred(on bool) { s.deferCompact.Store(on) }

// PredictedPosition returns the server's belief about a node's position.
func (s *Server) PredictedPosition(id int, now float64) (geo.Point, bool) {
	return s.table.Predict(id, now)
}

// MergedGrid merges the per-shard statistics grids and returns the
// global view (valid until the next merge). The merge runs on every
// Adapt; expose it for introspection and tests.
func (s *Server) MergedGrid() *statgrid.Grid {
	grids := make([]*statgrid.Grid, s.k)
	for i, sh := range s.shards {
		grids[i] = sh.grid
	}
	statgrid.MergeObservations(s.merged, grids)
	return s.merged
}

// StatsGrid implements controlplane.StatsSource: each adaptation
// partitions the merge of the per-shard statistics grids.
func (s *Server) StatsGrid() *statgrid.Grid { return s.MergedGrid() }

// Adapt runs one LIRA adaptation cycle at throttle fraction z over the
// merged shard statistics, through the shared control plane. At K = 1 the
// output is bit-identical to cqserver.Adapt.
func (s *Server) Adapt(z float64) (*cqserver.Adaptation, error) {
	return s.plane.Adapt(z)
}

// AdaptAuto measures the input queue over the window, steps THROTLOOP,
// and adapts at the resulting throttle fraction.
func (s *Server) AdaptAuto(window float64) (*cqserver.Adaptation, error) {
	return s.plane.AdaptAuto(window)
}

// Introspect returns a point-in-time engine snapshot.
func (s *Server) Introspect() cqserver.EngineInfo {
	return cqserver.EngineInfo{
		Engine:   "shard",
		Shards:   s.k,
		QueueLen: s.QueueLen(),
		QueueCap: s.QueueCap(),
		Dropped:  s.Dropped(),
		Applied:  s.applied,
		Queries:  len(s.queries),
		Z:        s.plane.Throttle().Z(),
	}
}
