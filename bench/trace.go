package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"lira/internal/basestation"
	"lira/internal/controlplane"
	"lira/internal/cqindex"
	"lira/internal/cqserver"
	"lira/internal/engine"
	"lira/internal/fmodel"
	"lira/internal/geo"
	"lira/internal/motion"
	"lira/internal/partition"
	"lira/internal/queue"
	"lira/internal/spans"
	"lira/internal/statgrid"
	"lira/internal/telemetry"
	"lira/internal/throttler"
	"lira/internal/wire"
)

// tracedTicks is the length of the in-process traced pass, in model
// steps of simDt.
const tracedTicks = 60

// frameHeader is the wire framing in front of a payload: length + type.
const frameHeader = 5

// The spans of the traced pass. The pipeline spans are the calls lirad
// (server side) and a mobile node (generator side) make once per record,
// tick, adaptation or registration; they sum to the tick. The
// attribution spans re-run one sub-step on the same inputs to split a
// pipeline span further, and are excluded from every sum.
const (
	spEncodeBatch  = "wire.AppendUpdateBatch"
	spFrameRead    = "wire.FrameReader.Next"
	spDecodeBatch  = "wire.DecodeUpdateBatchInto"
	spIngest       = "engine.IngestShedOldestColumns"
	spDrain        = "engine.Drain"
	spSnapshot     = "netsvc.stats_snapshot"
	spObserve      = "engine.ObserveStatistics"
	spAdapt        = "engine.Adapt"
	spDeploy       = "basestation.NewDeployment"
	spEncodeAssign = "wire.AppendAssignment"
	spDecodeAssign = "wire.DecodeAssignment"
	spCompile      = "mobilenode.Compile"
	spEvaluate     = "engine.Evaluate"
	spEncodeResult = "wire.AppendResult"
	spDecodeResult = "wire.DecodeResult"
	spRegister     = "engine.RegisterQueries"
	spWalkers      = "bench.walkers"

	spDeltaAt    = "mobilenode.Compiled.DeltaAt"
	spOffer      = "queue.Bounded.OfferShedOldest"
	spPoll       = "queue.Bounded.Poll"
	spApply      = "motion.Table.Apply"
	spPredict    = "motion.Columns.Predict"
	spRebuild    = "cqindex.Grid.Rebuild"
	spQuery      = "cqindex.Grid.QueryAppend"
	spIncPut     = "cqindex.Inc.Put"
	spIncCompact = "cqindex.Inc.Compact"
	spSetQueries = "statgrid.Grid.SetQueries"
	spGridReduce = "partition.GridReduce"
	spThrottlers = "throttler.SetThrottlers"
)

// serverSpans are the server-side pipeline spans with the unit each one's
// cost scales by: how many of that unit the live window had, and how many
// the traced pass ran. Cost per unit × live units is the span's share of
// lirad's CPU seconds.
var serverSpans = []struct {
	name   string
	live   func(liveCounts) float64
	traced func(*passStats) float64
}{
	{spFrameRead, func(c liveCounts) float64 { return c.BatchFrames }, func(p *passStats) float64 { return float64(p.frames) }},
	{spDecodeBatch, func(c liveCounts) float64 { return c.Offered }, func(p *passStats) float64 { return float64(p.records) }},
	{spIngest, func(c liveCounts) float64 { return c.Offered }, func(p *passStats) float64 { return float64(p.records) }},
	{spDrain, func(c liveCounts) float64 { return c.Applied }, func(p *passStats) float64 { return float64(p.records) }},
	{spSnapshot, func(c liveCounts) float64 { return c.Ticks }, func(p *passStats) float64 { return float64(p.ticks) }},
	{spObserve, func(c liveCounts) float64 { return c.Ticks }, func(p *passStats) float64 { return float64(p.ticks) }},
	{spEvaluate, func(c liveCounts) float64 { return c.Evaluations }, func(p *passStats) float64 { return float64(p.evals) }},
	{spEncodeResult, func(c liveCounts) float64 { return c.ResultFrames }, func(p *passStats) float64 { return float64(p.resultFrames) }},
	{spAdapt, func(c liveCounts) float64 { return c.Adaptations }, func(p *passStats) float64 { return float64(p.adapts) }},
	{spDeploy, func(c liveCounts) float64 { return c.Adaptations }, func(p *passStats) float64 { return float64(p.adapts) }},
	{spEncodeAssign, func(c liveCounts) float64 { return c.Adaptations }, func(p *passStats) float64 { return float64(p.adapts) }},
	{spRegister, func(c liveCounts) float64 { return c.Registrations }, func(p *passStats) float64 { return float64(p.regs) }},
}

// designSplit is the share of the server-side pipeline each workload was
// built to spend in the ingest, evaluate and control groups.
var designSplit = map[string]func(ingest, evaluate, control float64) bool{
	"ingest_ramp":   func(i, e, c float64) bool { return i >= 0.5 && i > e && i > c },
	"resident_eval": func(i, e, c float64) bool { return e >= 0.6 && i < 0.1 },
	"shed_adapt":    func(i, e, c float64) bool { return c >= 0.5 },
}

// agg accumulates one span name: busy time, calls, and work items.
type agg struct {
	ns, calls, n int64
}

// perItem is the span's busy nanoseconds per work item (per call when it
// carries no item count); perCall is per call. Both are 0 for a span
// that never ran.
func (a *agg) perItem() float64 {
	if a == nil {
		return 0
	}
	if a.n > 0 {
		return float64(a.ns) / float64(a.n)
	}
	return a.perCall()
}

func (a *agg) perCall() float64 {
	if a == nil || a.calls == 0 {
		return 0
	}
	return float64(a.ns) / float64(a.calls)
}

// tracer wraps the repo's span tracer: every call() is one span under
// the current tick's root, and is also summed by name. A nil sp makes
// call() run the function bare, which is the untraced comparison pass.
type tracer struct {
	sp   *spans.Tracer
	root spans.Ctx
	agg  map[string]*agg
}

func (t *tracer) call(name string, fn func() int) {
	if t.sp == nil {
		fn()
		return
	}
	layer, _, _ := strings.Cut(name, ".") // span names are package-qualified
	c := t.root.Child(name, layer)
	begin := time.Now()
	n := fn()
	d := time.Since(begin)
	c.Num("n", float64(n)).End()
	a := t.agg[name]
	if a == nil {
		a = &agg{}
		t.agg[name] = a
	}
	a.ns += int64(d)
	a.calls++
	a.n += int64(n)
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// passStats is what one traced pass measured besides the span sums.
type passStats struct {
	wall               time.Duration
	ticks, adapts      int
	records, frames    int64
	bytes              int64
	members            int64
	evalAllocs         uint64
	decodeAllocs       uint64
	decodeAllocRecords int64
	regions            int
	slack              float64
	regionsPerStation  float64
	broadcastBytes     float64
	assignBytes        int64
	assignFrames       int64
	checks, sent       int64
	regs, evals        int64
	resultFrames       int64
}

// pipeline replays the workload's generated inputs, in model time, through
// the public functions of every layer in the order lirad and its clients
// call them, against engine.New(cfg, k).
func pipeline(s *spec, seed uint64, shards int, t *tracer) (*passStats, error) {
	w := newWorld(s, seed)
	w.scoring = true
	curve := fmodel.Hyperbolic(minDelta, maxDelta, 95)
	cfg := cqserver.Config{Space: w.space, Nodes: s.Nodes, L: s.L, QueueSize: queueSize,
		Curve: curve, Fairness: fairness, Telemetry: telemetry.NewHub(0)} // as cmd/lirad configures it
	eng, err := engine.New(cfg, shards)
	if err != nil {
		return nil, err
	}
	eng.RegisterQueries(w.rects)
	st := &passStats{}
	const base = 1.7e9 // report clock origin, Unix-like so time columns encode as they do live

	// Attribution state: private copies of the sub-step structures. The
	// two adaptation stages are reached through the control plane's policy,
	// the one place the repo wires GRIDREDUCE to GREEDYINCREMENT.
	lira := controlplane.LiraPolicy{}
	env := controlplane.Env{L: s.L, Curve: curve, Fairness: fairness}
	q := queue.NewBounded[cqserver.Update](queueSize)
	table := motion.NewTable(s.Nodes)
	grid := cqindex.NewGrid(w.space, 64)
	inc := cqindex.NewInc(w.space, 64, s.Nodes)
	sgrid := statgrid.New(w.space, partition.AlphaFor(s.L, 10))
	pred := make([]geo.Point, s.Nodes)
	active := make([]bool, s.Nodes)

	var batch, decoded wire.UpdateBatch
	var stream, frame []byte
	var tick []wire.Update
	var obsPos []geo.Point
	var obsSpd []float64
	var scratch []int
	emit := func(id int, rep motion.Report) { tick = append(tick, wire.Update{Node: uint32(id), Report: rep}) }
	w.start(base, emit)
	adaptEvery := int(s.Adapt.Seconds()/simDt + 0.5)
	regOwed, regOps := 0.0, 0
	begin := time.Now()

	for k := 0; k < tracedTicks; k++ {
		now := base + float64(k+1)*simDt
		t.root = t.sp.Start("tick", "bench").Num("tick", float64(k))

		// Mobile side: walkers move and dead-reckon; reports are framed.
		t.call(spWalkers, func() int {
			for g := 0; g < groups; g++ {
				w.stepGroup(g, simDt, now, emit)
			}
			if s.Ladder != nil {
				w.forced(int(s.Ladder[s.RefStep-1]*simDt), now, emit) // the highest reference rate
			}
			return w.walkers
		})
		stream = stream[:0]
		for lo := 0; lo < len(tick); lo += maxBatch {
			hi := min(lo+maxBatch, len(tick))
			batch.Reset()
			for _, u := range tick[lo:hi] {
				batch.Append(u)
			}
			t.call(spEncodeBatch, func() int {
				stream = wire.AppendUpdateBatch(stream, &batch)
				return hi - lo
			})
		}
		st.records += int64(len(tick))
		st.bytes += int64(len(stream))

		// Server side: read, decode, admit, drain.
		fr := wire.NewFrameReader(bytes.NewReader(stream))
		for first := true; ; first = false {
			var payload []byte
			var err error
			eof := false
			t.call(spFrameRead, func() int {
				_, payload, err = fr.Next()
				eof = err != nil
				return 1
			})
			if eof {
				break
			}
			st.frames++
			var m0 uint64
			if first && t.sp != nil {
				m0 = mallocs()
			}
			t.call(spDecodeBatch, func() int {
				err = wire.DecodeUpdateBatchInto(&decoded, payload)
				return decoded.Len()
			})
			if err != nil {
				return nil, err
			}
			if first && t.sp != nil {
				st.decodeAllocs += mallocs() - m0
				st.decodeAllocRecords += int64(decoded.Len())
			}
			t.call(spIngest, func() int {
				eng.IngestShedOldestColumns(decoded.Node, decoded.X, decoded.Y, decoded.VX, decoded.VY, decoded.Time)
				return decoded.Len()
			})
		}
		t.call(spDrain, func() int { return eng.Drain(-1) })

		// The statistics refresh netsvc does each tick from its own beliefs.
		t.call(spSnapshot, func() int {
			tb := eng.Table()
			obsPos, obsSpd = obsPos[:0], obsSpd[:0]
			for i := 0; i < tb.Len(); i++ {
				if rep, ok := tb.Report(i); ok {
					obsPos = append(obsPos, w.space.ClampPoint(rep.Predict(now)))
					obsSpd = append(obsSpd, rep.Vel.Len())
				}
			}
			return len(obsPos)
		})
		t.call(spObserve, func() int {
			eng.ObserveStatistics(obsPos, obsSpd)
			return len(obsPos)
		})

		adapting := adaptEvery > 0 && (k+1)%adaptEvery == 0
		if adapting {
			st.adapts++
			var ad *cqserver.Adaptation
			t.call(spAdapt, func() int {
				ad, err = eng.Adapt(s.Z)
				return 1
			})
			if err != nil {
				return nil, err
			}
			var dep *basestation.Deployment
			t.call(spDeploy, func() int {
				dep, err = basestation.NewDeployment(w.stations, ad.Partitioning, ad.Deltas)
				return len(w.stations)
			})
			if err != nil {
				return nil, err
			}
			st.regionsPerStation += dep.MeanRegionsPerStation()
			st.broadcastBytes += dep.MeanBroadcastBytes()
			for i, a := range dep.Assignments {
				wa := wire.Assignment{Station: uint32(i), DefaultDelta: a.DefaultDelta}
				t.call(spEncodeAssign, func() int {
					for j, r := range a.Regions {
						wa.Entries = append(wa.Entries, wire.EntryFromRect(r, a.Deltas[j]))
					}
					frame = wire.AppendAssignment(frame[:0], wa)
					return len(a.Regions)
				})
				st.assignBytes += int64(len(frame))
				st.assignFrames++
				var got wire.Assignment
				t.call(spDecodeAssign, func() int {
					got, err = wire.DecodeAssignment(frame[frameHeader:])
					return len(got.Entries)
				})
				if err != nil {
					return nil, err
				}
				t.call(spCompile, func() int {
					w.install(got)
					return len(got.Entries)
				})
			}
		}

		// Evaluate and push one result frame per query; the client decodes.
		// Registrations due this tick then run as netsvc.registerQuery does:
		// replace the query set, drain, evaluate, answer the one query.
		evaluate := func(only int) error {
			m0 := uint64(0)
			if t.sp != nil {
				m0 = mallocs()
			}
			var results [][]int
			t.call(spEvaluate, func() int {
				results = eng.Evaluate(now)
				return s.Nodes
			})
			if t.sp != nil {
				st.evalAllocs += mallocs() - m0
			}
			st.evals++
			for qi, nodes := range results {
				if only >= 0 && qi != only {
					continue
				}
				st.members += int64(len(nodes))
				st.resultFrames++
				t.call(spEncodeResult, func() int {
					res := wire.Result{ID: uint32(qi), Nodes: make([]uint32, len(nodes))}
					for i, n := range nodes {
						res.Nodes[i] = uint32(n)
					}
					frame = wire.AppendResult(frame[:0], res)
					return len(nodes)
				})
				var err error
				t.call(spDecodeResult, func() int {
					_, err = wire.DecodeResult(frame[frameHeader:])
					return len(nodes)
				})
				if err != nil {
					return err
				}
			}
			return nil
		}
		if err := evaluate(-1); err != nil {
			return nil, err
		}
		for regOwed += simDt / s.Think.Seconds(); regOwed >= 1; regOwed-- {
			slot := regOps % s.Churn
			regOps++
			w.nextChurn(slot)
			st.regs++
			t.call(spRegister, func() int {
				eng.RegisterQueries(w.rects)
				eng.Drain(-1)
				return 1
			})
			if err := evaluate(w.fixedQ + slot); err != nil {
				return nil, err
			}
		}

		// Attribution: sub-steps re-run on this tick's inputs.
		{
			pipe := t.root
			t.root = pipe.Child("attribution", "bench")
			if s.Ladder == nil {
				t.call(spDeltaAt, func() int {
					for i := 0; i < w.walkers; i++ {
						w.deltaAt(i, geo.Point{X: w.x[i], Y: w.y[i]})
					}
					return w.walkers
				})
			}
			t.call(spOffer, func() int {
				for _, u := range tick {
					q.OfferShedOldest(cqserver.Update{Node: int(u.Node), Report: u.Report})
				}
				return len(tick)
			})
			t.call(spPoll, func() int {
				n := 0
				for _, ok := q.Poll(); ok; _, ok = q.Poll() {
					n++
				}
				return n
			})
			t.call(spApply, func() int {
				for _, u := range tick {
					table.Apply(int(u.Node), u.Report)
				}
				return len(tick)
			})
			cols := eng.Table().Columns()
			t.call(spPredict, func() int {
				for i := range pred {
					if active[i] = cols.Known[i]; active[i] {
						pred[i] = cols.Predict(i, now)
					}
				}
				return len(pred)
			})
			t.call(spRebuild, func() int {
				grid.Rebuild(pred, active)
				return len(pred)
			})
			t.call(spQuery, func() int {
				n := 0
				for _, r := range w.rects {
					scratch = grid.QueryAppend(r, scratch[:0])
					n += len(scratch)
				}
				return n
			})
			t.call(spIncPut, func() int {
				for i, p := range pred {
					if active[i] {
						inc.Put(i, w.space.ClampPoint(p))
					}
				}
				return len(pred)
			})
			t.call(spIncCompact, func() int {
				inc.Compact()
				return 1
			})
			t.call(spSetQueries, func() int {
				sgrid.SetQueries(w.rects)
				return len(w.rects)
			})
			if adapting {
				var p *partition.Partitioning
				t.call(spGridReduce, func() int {
					p, err = lira.Partition(eng.StatsGrid(), s.Z, env)
					return 1
				})
				if err != nil {
					return nil, err
				}
				st.regions = len(p.Regions)
				var tr *throttler.Result
				t.call(spThrottlers, func() int {
					tr, err = lira.Assign(p, s.Z, env)
					return len(p.Regions)
				})
				if err != nil {
					return nil, err
				}
				if tr.Budget > 0 {
					st.slack = 1 - throttler.Expenditure(p.Stats(), curve, tr.Deltas, false)/tr.Budget
					if st.slack < 0 && st.slack > -1e-9 {
						st.slack = 0 // rounding in the two sums
					}
				}
			}
			t.root.End()
			t.root = pipe
		}
		t.root.End()
		tick = tick[:0]
	}
	st.wall = time.Since(begin)
	st.ticks = tracedTicks
	st.checks, st.sent = w.checks, w.sent
	return st, nil
}

// tracedPass runs the workload's inputs in-process against both engines
// with a span around every layer call, and once more without spans for
// the tracing overhead, then fills res.PerLayer. With GOMAXPROCS pinned
// to 1 a span's wall time is CPU time, which is what the residue
// accounting needs.
func tracedPass(s *spec, seed uint64, res *result, out string) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sp := spans.New(spans.Config{Capacity: 1 << 17, Seed: seed})
	start := time.Now()
	sp.SetClock(func() float64 { return time.Since(start).Seconds() })
	aggs := map[int]map[string]*agg{}
	stats := map[int]*passStats{}
	for _, k := range []int{1, 2} {
		t := &tracer{sp: sp, agg: map[string]*agg{}}
		st, err := pipeline(s, seed, k, t)
		if err != nil {
			return fmt.Errorf("K=%d: %w", k, err)
		}
		aggs[k], stats[k] = t.agg, st
	}
	bare, err := pipeline(s, seed, s.Shards, &tracer{})
	if err != nil {
		return err
	}
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if err := sp.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	own, st := aggs[s.Shards], stats[s.Shards]
	p := res.PerLayer
	ns := func(a map[string]*agg, name string) float64 { return a[name].perItem() }
	p["wire.encode_batch_ns_per_rec"] = ns(own, spEncodeBatch)
	p["wire.batch_bytes_per_rec"] = float64(st.bytes) / float64(max(st.records, 1))
	p["wire.frame_read_ns_per_frame"] = ns(own, spFrameRead)
	p["wire.decode_batch_ns_per_rec"] = ns(own, spDecodeBatch)
	p["wire.decode_batch_allocs_per_rec"] = float64(st.decodeAllocs) / float64(max(st.decodeAllocRecords, 1))
	p["wire.encode_result_ns_per_member"] = ns(own, spEncodeResult)
	p["wire.decode_result_ns_per_member"] = ns(own, spDecodeResult)
	p["wire.encode_assignment_us"] = own[spEncodeAssign].perCall() / 1e3
	p["wire.decode_assignment_us"] = own[spDecodeAssign].perCall() / 1e3
	p["wire.assignment_bytes"] = float64(st.assignBytes) / float64(max(st.assignFrames, 1))
	p["netsvc.stats_snapshot_ns_per_node"] = ns(own, spSnapshot)
	p["queue.offer_ns_per_rec"] = ns(own, spOffer)
	p["queue.poll_ns_per_rec"] = ns(own, spPoll)
	p["cqserver.ingest_ns_per_rec"] = ns(aggs[1], spIngest)
	p["shard.ingest_ns_per_rec"] = ns(aggs[2], spIngest)
	p["cqserver.drain_ns_per_rec"] = ns(aggs[1], spDrain)
	p["shard.drain_ns_per_rec"] = ns(aggs[2], spDrain)
	p["motion.apply_ns_per_rec"] = ns(own, spApply)
	p["motion.predict_ns_per_node"] = ns(own, spPredict)
	p["cqindex.rebuild_ns_per_node"] = ns(own, spRebuild)
	p["cqindex.query_ns_per_member"] = ns(own, spQuery)
	p["cqindex.inc_put_ns_per_move"] = ns(own, spIncPut)
	p["cqindex.inc_compact_ms"] = ns(own, spIncCompact) / 1e6
	p["cqserver.evaluate_ns_per_node"] = ns(aggs[1], spEvaluate)
	p["shard.evaluate_ns_per_node"] = ns(aggs[2], spEvaluate)
	p["engine.evaluate_allocs_per_tick"] = float64(st.evalAllocs) / float64(st.evals)
	p["engine.result_members_per_tick"] = float64(st.members) / float64(st.ticks)
	p["statgrid.observe_ns_per_node"] = ns(own, spObserve)
	p["statgrid.set_queries_us_per_query"] = ns(own, spSetQueries) / 1e3
	p["partition.gridreduce_ms"] = ns(own, spGridReduce) / 1e6
	p["partition.regions"] = float64(st.regions)
	p["throttler.set_throttlers_ms"] = own[spThrottlers].perCall() / 1e6
	p["throttler.budget_slack"] = st.slack
	p["controlplane.adapt_ms"] = ns(own, spAdapt) / 1e6
	p["basestation.deploy_ms"] = own[spDeploy].perCall() / 1e6
	p["basestation.regions_per_station"] = st.regionsPerStation / float64(max(st.adapts, 1))
	p["basestation.broadcast_bytes"] = st.broadcastBytes / float64(max(st.adapts, 1))
	p["mobilenode.compile_us"] = own[spCompile].perCall() / 1e3
	p["mobilenode.delta_at_ns"] = ns(own, spDeltaAt)
	if st.checks > 0 {
		p["mobilenode.suppressed_share"] = 1 - float64(st.sent)/float64(st.checks)
	}
	p["trace.overhead_share"] = float64(st.wall)/float64(bare.wall) - 1
	if want := partition.ValidRegionCount(s.L); st.adapts > 0 && st.regions != want {
		return fmt.Errorf("check failed: GRIDREDUCE produced %d regions, want %d", st.regions, want)
	}
	if st.slack < -1e-9 {
		return fmt.Errorf("check failed: throttler expenditure exceeds the budget (slack %g)", st.slack)
	}

	// Layer split over the server-side pipeline spans, and the share of
	// lirad's measured CPU seconds the scaled spans do not explain.
	total, explained := 0.0, 0.0
	for _, ss := range serverSpans {
		a, n := own[ss.name], ss.traced(st)
		if a == nil || n == 0 {
			continue
		}
		total += float64(a.ns)
		explained += float64(a.ns) / n * ss.live(res.live) / 1e9
	}
	group := func(names ...string) float64 {
		sum := 0.0
		for _, n := range names {
			if a := own[n]; a != nil {
				sum += float64(a.ns)
			}
		}
		return sum / total
	}
	ingest := group(spFrameRead, spDecodeBatch, spIngest, spDrain)
	evaluate := group(spEvaluate, spEncodeResult)
	control := group(spAdapt, spDeploy, spEncodeAssign)
	p["trace.ingest_group_share"], p["trace.evaluate_group_share"], p["trace.control_group_share"] = ingest, evaluate, control
	if holds := designSplit[s.Name]; holds != nil && !holds(ingest, evaluate, control) {
		return fmt.Errorf("check failed: layer split ingest=%.2f evaluate=%.2f control=%.2f is not the one %s was built for; fix the workload's parameters",
			ingest, evaluate, control, s.Name)
	}
	p["netsvc.residue_cpu_share"] = 1 - explained/res.live.CPUSeconds
	res.Info["traced_ticks"] = float64(st.ticks)
	res.Info["traced_spans"] = float64(sp.Len())
	res.Info["traced_spans_evicted"] = float64(sp.Evicted())
	return nil
}
