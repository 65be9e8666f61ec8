package main

import (
	"math"
	"sync"

	"lira/internal/basestation"
	"lira/internal/geo"
	"lira/internal/mobilenode"
	"lira/internal/motion"
	"lira/internal/rng"
	"lira/internal/wire"
)

// groups is how many phase groups the walkers are split into. Each group
// steps every simDt, but the groups step at evenly staggered phases, so
// the generator's work (and the report stream) is spread over the step
// instead of arriving as one burst that would delay probe emission.
const groups = 20

// world is the generator's model of the mobile side: random-waypoint
// walkers that dead-reckon against the Δ of the assignment lirad last
// broadcast, parked probe, marker and gateway nodes, and the standing
// queries. Everything in it is a function of the seed and the step
// count; wall time only decides when a step happens.
//
// Node ids: [0, walkers) walk, then probes, markers, and one gateway per
// station at the top of the id range.
type world struct {
	s        *spec
	space    geo.Rect
	stations []basestation.Station

	walkers, probe0, marker0, gate0 int
	fixedQ                          int // queries [0, fixedQ) never change; probes bind to them

	mu sync.Mutex // guards everything below during a live run

	x, y, vx, vy []float64 // walker state at its group's last step
	steer        []bool
	station      []int32
	reck, shadow []motion.DeadReckoner
	at           [groups]float64 // report-clock time of each group's last step
	steps        [groups]int     // steps taken, for the hotspot's model time
	rnd          *rng.Rand
	nextForced   int

	compiled []*mobilenode.Compiled // per station; nil until its first assignment

	rects   []geo.Rect // standing queries exactly as lirad decodes them
	qgrid   queryGrid
	inCount []int32 // [group*fixedQ+q]: the group's walkers inside fixed query q at its last step

	parked     []geo.Point // positions of probes, markers, gateways (index id-probe0)
	probeIn    []geo.Point
	probeOut   []geo.Point
	probeQuery []int
	regRnd     *rng.Rand
	slotMarker []int // marker each churn query is centred on

	// Accounting over the measured window.
	scoring            bool
	sent, shadowSent   int64
	checks, suppressed int64
	posErrSum          float64
	posErrN            int64
	ecSum              float64
	ecN                int64
}

func f32(v float64) float64 { return float64(float32(v)) }

// wireRect rounds r to what a Query frame carries (float32 corners).
func wireRect(r geo.Rect) geo.Rect {
	return geo.Rect{MinX: f32(r.MinX), MinY: f32(r.MinY), MaxX: f32(r.MaxX), MaxY: f32(r.MaxY)}
}

func newWorld(s *spec, seed uint64) *world {
	space := geo.Rect{MaxX: spaceSide, MaxY: spaceSide}
	w := &world{s: s, space: space}
	if s.StationRadius > 0 {
		w.stations, _ = basestation.PlaceUniform(space, s.StationRadius) // radius is a positive constant
	} else { // lirad's single default station
		w.stations = []basestation.Station{{Center: space.Center(), Radius: space.Width() + space.Height()}}
	}
	w.gate0 = s.Nodes - len(w.stations)
	w.marker0 = w.gate0 - markers
	w.probe0 = w.marker0 - s.Probes
	w.walkers = w.probe0
	w.fixedQ = s.Queries - s.Churn
	w.compiled = make([]*mobilenode.Compiled, len(w.stations))

	root := rng.New(seed)
	w.rnd = root.Split(1)
	w.regRnd = root.Split(4)
	n := w.walkers
	w.x, w.y = make([]float64, n), make([]float64, n)
	w.vx, w.vy = make([]float64, n), make([]float64, n)
	w.steer = make([]bool, n)
	w.station = make([]int32, n)
	w.reck, w.shadow = make([]motion.DeadReckoner, n), make([]motion.DeadReckoner, n)
	init := root.Split(2)
	for i := 0; i < n; i++ {
		w.x[i], w.y[i] = init.Range(0, spaceSide), init.Range(0, spaceSide)
		w.steer[i] = s.Hotspot && i%2 == 0
		w.turn(i, init)
		w.station[i] = int32(w.stationFor(0, geo.Point{X: w.x[i], Y: w.y[i]}))
	}

	q := root.Split(3)
	w.parked = make([]geo.Point, s.Nodes-w.probe0)
	margin := s.QMax
	for m := 0; m < markers; m++ {
		w.parked[w.marker0-w.probe0+m] = geo.Point{X: q.Range(margin, spaceSide-margin), Y: q.Range(margin, spaceSide-margin)}
	}
	for g, st := range w.stations {
		w.parked[w.gate0-w.probe0+g] = st.Center
	}
	// Fixed queries: sides spread evenly over the range and centres
	// stratified (one per cell of a grid over the space, at a random offset
	// in the cell), so the seed moves every query but not the total query
	// area or how evenly the queries cover the space.
	w.rects = make([]geo.Rect, s.Queries)
	cells := int(math.Ceil(math.Sqrt(float64(w.fixedQ))))
	order := q.Perm(cells * cells)
	for i := 0; i < w.fixedQ; i++ {
		side := s.QSideMin + (s.QMax-s.QSideMin)*(float64(i)+0.5)/float64(w.fixedQ)
		span := (spaceSide - 2*side) / float64(cells) // keeps the square and its probes' outside points in the space
		c := geo.Point{
			X: side + (float64(order[i]%cells)+q.Float64())*span,
			Y: side + (float64(order[i]/cells)+q.Float64())*span,
		}
		w.rects[i] = wireRect(geo.Square(c, side))
	}
	w.slotMarker = make([]int, s.Churn)
	for i := range w.slotMarker {
		w.slotMarker[i] = i % markers
		w.rects[w.fixedQ+i] = w.churnRect(i)
	}
	w.probeIn, w.probeOut = make([]geo.Point, s.Probes), make([]geo.Point, s.Probes)
	w.probeQuery = make([]int, s.Probes)
	for p := 0; p < s.Probes; p++ {
		r := w.rects[p%w.fixedQ]
		side := r.Width()
		c := r.Center()
		in := geo.Point{X: c.X + q.Range(-side/4, side/4), Y: c.Y + q.Range(-side/4, side/4)}
		out := geo.Point{X: in.X + side, Y: in.Y}
		if out.X >= spaceSide {
			out.X = in.X - side
		}
		w.probeQuery[p], w.probeIn[p], w.probeOut[p] = p%w.fixedQ, in, out
		w.parked[p] = out
	}
	w.inCount = make([]int32, groups*w.fixedQ)
	w.qgrid.build(w.rects)
	return w
}

// churnRect is churn query slot i's rectangle: a square of the workload's
// mean query side centred on the slot's current marker node.
func (w *world) churnRect(i int) geo.Rect {
	c := w.parked[w.marker0-w.probe0+w.slotMarker[i]]
	return wireRect(geo.Square(c, (w.s.QSideMin+w.s.QMax)/2))
}

// nextChurn moves churn slot i to a different marker and returns the
// query's new rectangle and the marker's node id. Caller holds mu.
func (w *world) nextChurn(i int) (geo.Rect, int) {
	w.slotMarker[i] = (w.slotMarker[i] + 1 + w.regRnd.Intn(markers-1)) % markers
	r := w.churnRect(i)
	w.rects[w.fixedQ+i] = r
	w.qgrid.build(w.rects)
	return r, w.marker0 + w.slotMarker[i]
}

// group returns the phase group of walker i (contiguous id ranges).
func (w *world) group(i int) int { return i * groups / w.walkers }

func (w *world) groupRange(g int) (lo, hi int) {
	return (g*w.walkers + groups - 1) / groups, ((g+1)*w.walkers + groups - 1) / groups
}

// hotspot is the attractor's position at model time t: it orbits the
// centre of the space every 125 s.
func hotspot(t float64) geo.Point {
	a := 2 * math.Pi * t / 125
	return geo.Point{X: spaceSide/2 + spaceSide/4*math.Cos(a), Y: spaceSide/2 + spaceSide/4*math.Sin(a)}
}

// turn gives walker i a fresh speed and heading; steering walkers head
// for the hotspot (with scatter) instead of a uniform direction.
func (w *world) turn(i int, r *rng.Rand) {
	speed := r.Range(minSpeed, maxSpeed)
	ang := r.Range(0, 2*math.Pi)
	if w.steer[i] {
		h := hotspot(float64(w.steps[w.group(i)]) * simDt)
		ang = math.Atan2(h.Y-w.y[i], h.X-w.x[i]) + r.Norm(0, 0.5)
	}
	w.vx[i], w.vy[i] = speed*math.Cos(ang), speed*math.Sin(ang)
}

func (w *world) stationFor(cur int, p geo.Point) int {
	if w.stations[cur].Covers(p) {
		return cur
	}
	if st := basestation.StationFor(w.stations, p); st >= 0 {
		return st
	}
	return cur
}

// install compiles a received assignment into the node-side index, as a
// camped mobile node does. Caller holds mu.
func (w *world) install(wa wire.Assignment) {
	a := &basestation.Assignment{DefaultDelta: wa.DefaultDelta}
	for _, e := range wa.Entries {
		a.Regions = append(a.Regions, e.Rect())
		a.Deltas = append(a.Deltas, e.Delta)
	}
	if int(wa.Station) < len(w.compiled) {
		w.compiled[wa.Station] = mobilenode.Compile(a)
	}
}

// deltaAt is the inaccuracy threshold in force for walker i at p: the
// throttler of its station's assignment, Δ⊢ before the first broadcast.
func (w *world) deltaAt(i int, p geo.Point) float64 {
	st := w.stationFor(int(w.station[i]), p)
	w.station[i] = int32(st)
	if c := w.compiled[st]; c != nil {
		return c.DeltaAt(p)
	}
	return minDelta
}

// start emits every node's first report at time t. Every node is at rest
// then — walkers set off at their first step — so however long set-up
// takes, lirad's prediction and the walkers' true positions agree when
// traffic starts.
func (w *world) start(t float64, emit func(id int, rep motion.Report)) {
	for g := range w.at {
		w.at[g] = t
	}
	for i := 0; i < w.walkers; i++ {
		q := wire.QuantizeReport(motion.Report{Pos: geo.Point{X: w.x[i], Y: w.y[i]}, Time: t})
		w.shadow[i].Start(q.Pos, q.Vel, q.Time)
		emit(i, w.reck[i].Start(q.Pos, q.Vel, q.Time))
	}
	for k, p := range w.parked {
		emit(w.probe0+k, motion.Report{Pos: p, Time: t})
	}
}

// stepGroup advances group g by dt seconds (simDt, less on a group's
// first, phase-staggered step) to report-clock time t and runs each
// walker's dead-reckoning check, emitting the reports that are due. With
// a forced-report ladder the walkers only move; forced() reports for
// them.
func (w *world) stepGroup(g int, dt, t float64, emit func(id int, rep motion.Report)) {
	lo, hi := w.groupRange(g)
	w.steps[g]++
	w.at[g] = t
	row := w.inCount[g*w.fixedQ : (g+1)*w.fixedQ]
	for q := range row {
		row[q] = 0
	}
	for i := lo; i < hi; i++ {
		x, y := w.x[i]+w.vx[i]*dt, w.y[i]+w.vy[i]*dt
		if x < 0 {
			x, w.vx[i] = -x, -w.vx[i]
		} else if x >= spaceSide {
			x, w.vx[i] = 2*spaceSide-x-1e-6, -w.vx[i]
		}
		if y < 0 {
			y, w.vy[i] = -y, -w.vy[i]
		} else if y >= spaceSide {
			y, w.vy[i] = 2*spaceSide-y-1e-6, -w.vy[i]
		}
		w.x[i], w.y[i] = x, y
		if w.rnd.Bool(w.s.Turn) {
			w.turn(i, w.rnd)
		}
		p := geo.Point{X: x, Y: y}
		// Position error is taken before this step's report decision: what
		// the server believed about the node up to now. The reckoners hold
		// reports as the wire quantizes them, so this is the distance to
		// the prediction lirad itself would make.
		if w.qgrid.count(w.rects, p, row) && w.scoring {
			w.posErrSum += w.reck[i].Deviation(p, t)
			w.posErrN++
		}
		q := wire.QuantizeReport(motion.Report{Pos: p, Vel: geo.Vector{X: w.vx[i], Y: w.vy[i]}, Time: t})
		_, shadow := w.shadow[i].Observe(q.Pos, q.Vel, q.Time, minDelta)
		if shadow && w.scoring {
			w.shadowSent++
		}
		if w.s.Ladder != nil {
			continue
		}
		rep, send := w.reck[i].Observe(q.Pos, q.Vel, q.Time, w.deltaAt(i, p))
		if send {
			emit(i, rep)
		}
		if w.scoring {
			w.checks++
			if send {
				w.sent++
			}
		}
	}
}

// forced emits n reports round-robin over the walkers at time t, each
// carrying the walker's true position at t.
func (w *world) forced(n int, t float64, emit func(id int, rep motion.Report)) {
	if w.scoring {
		w.sent += int64(n)
	}
	for ; n > 0; n-- {
		i := w.nextForced
		if w.nextForced++; w.nextForced == w.walkers {
			w.nextForced = 0
		}
		q := wire.QuantizeReport(motion.Report{Pos: w.truePos(i, t), Vel: geo.Vector{X: w.vx[i], Y: w.vy[i]}, Time: t})
		emit(i, w.reck[i].Start(q.Pos, q.Vel, q.Time))
	}
}

// truePos is walker i's position at time t within its current step.
func (w *world) truePos(i int, t float64) geo.Point {
	dt := t - w.at[w.group(i)]
	return w.space.ClampPoint(geo.Point{X: w.x[i] + w.vx[i]*dt, Y: w.y[i] + w.vy[i]*dt})
}

// containment scores one result frame of fixed query q received at time
// t against the walkers' true positions: E^C = (missing + extra) / true.
// Extras are exact at t; the true count is the sum of the groups' counts
// at their last steps (at most simDt old), so this is a sampled sanity
// check, not a metric. Caller holds mu.
func (w *world) containment(q int, nodes []uint32, t float64) {
	r := w.rects[q]
	in, extra := 0, 0
	for _, id := range nodes {
		if int(id) >= w.walkers {
			continue // parked probes and markers are scored by their own checks
		}
		if r.ContainsClosed(w.truePos(int(id), t)) {
			in++
		} else {
			extra++
		}
	}
	truth := 0
	for g := 0; g < groups; g++ {
		truth += int(w.inCount[g*w.fixedQ+q])
	}
	if truth == 0 {
		return
	}
	missing := truth - in
	if missing < 0 {
		missing = 0
	}
	w.ecSum += float64(missing+extra) / float64(truth)
	w.ecN++
}

// queryGrid maps a point to the queries that may contain it.
type queryGrid struct {
	cells [][]int32
}

const qgridSide = 64

func (g *queryGrid) build(rects []geo.Rect) {
	if g.cells == nil {
		g.cells = make([][]int32, qgridSide*qgridSide)
	}
	for i := range g.cells {
		g.cells[i] = g.cells[i][:0]
	}
	cell := spaceSide / qgridSide
	clamp := func(v float64) int {
		return int(math.Max(0, math.Min(qgridSide-1, math.Floor(v/cell))))
	}
	for q, r := range rects {
		for j := clamp(r.MinY); j <= clamp(r.MaxY); j++ {
			for i := clamp(r.MinX); i <= clamp(r.MaxX); i++ {
				g.cells[j*qgridSide+i] = append(g.cells[j*qgridSide+i], int32(q))
			}
		}
	}
}

// count reports whether p is inside at least one query and increments
// fixed[q] for every fixed query (index below len(fixed)) containing it.
func (g *queryGrid) count(rects []geo.Rect, p geo.Point, fixed []int32) bool {
	cell := spaceSide / qgridSide
	i, j := int(p.X/cell), int(p.Y/cell)
	if i < 0 || j < 0 || i >= qgridSide || j >= qgridSide {
		return false
	}
	any := false
	for _, q := range g.cells[j*qgridSide+i] {
		if rects[q].ContainsClosed(p) {
			any = true
			if int(q) < len(fixed) {
				fixed[q]++
			}
		}
	}
	return any
}
