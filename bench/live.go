package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lira/internal/geo"
	"lira/internal/motion"
	"lira/internal/rng"
	"lira/internal/wire"
)

const (
	warmup       = 2 * time.Second
	paceSlot     = 2 * time.Millisecond // forced-report pacing granularity
	groupEvery   = time.Duration(simDt * float64(time.Second) / groups)
	maxBatch     = 1024 // records per UpdateBatch frame
	probeTimeout = 2 * time.Second
	sustainP99Ms = 250.0 // latency limit a sustainable step must meet
	stepGuard    = 250 * time.Millisecond
)

// errInvalid marks a run whose numbers would measure the generator or the
// scheduler instead of lirad; it is reported as INVALID, never as a slow
// result.
var errInvalid = errors.New("INVALID")

func invalidf(format string, a ...any) error {
	return fmt.Errorf("%w: %s", errInvalid, fmt.Sprintf(format, a...))
}

// probe is one parked node that flips between a point inside and a point
// outside its query; the time until a Result frame shows the flip is the
// update→result latency.
type probe struct {
	inside  bool // membership the server last confirmed
	pending bool
	target  bool
	due     time.Time
	step    int // ladder step of the flip; 0 off the ladder, -1 outside the window
}

type probeSample struct {
	ms   float64 // +Inf for a miss
	step int
}

type snapshot struct {
	at  time.Time
	m   map[string]float64
	cpu float64
}

type lastResult struct {
	nodes []uint32
	at    time.Time
}

// liveRun drives one lirad child over two TCP connections — an uplink
// carrying UpdateBatch frames for every simulated node and a query
// connection — and collects what came back.
type liveRun struct {
	s    *spec
	w    *world
	d    *lirad
	up   net.Conn
	qc   net.Conn
	seed uint64

	t0          time.Time // start of traffic
	winStart    time.Time
	winEnd      time.Time
	stepLen     time.Duration
	flips       []time.Duration // probe flip offsets from t0, jittered
	probeOrder  []int
	nextProbe   int
	written     atomic.Int64 // records written to the uplink
	assignments atomic.Int64

	batch wire.UpdateBatch
	frame []byte

	late     []float64 // ms, events inside the window
	busy     time.Duration
	driveErr error

	pmu     sync.Mutex // guards probes, samples, reg*, last, frames
	probes  []probe
	byQuery [][]int
	samples []probeSample
	last    []lastResult
	frames  []int64 // result frames per query inside the window
	regQ    int     // query id the registrar waits on, -1 when idle
	regNode uint32
	regDone chan time.Time // 1: the reader hands over the completing frame's time

	regMs       []float64
	regAttempts int
	regFailed   int

	snaps []snapshot // guarded by smu
	smu   sync.Mutex
}

func newLiveRun(s *spec, seed uint64) *liveRun {
	w := newWorld(s, seed)
	r := &liveRun{s: s, w: w, seed: seed, regQ: -1,
		probes:     make([]probe, s.Probes),
		byQuery:    make([][]int, w.fixedQ),
		probeOrder: rng.New(seed).Split(6).Perm(s.Probes),
		last:       make([]lastResult, s.Queries),
		frames:     make([]int64, s.Queries),
		regDone:    make(chan time.Time, 1),
	}
	for p, q := range w.probeQuery {
		r.byQuery[q] = append(r.byQuery[q], p)
	}
	return r
}

func unixOf(t time.Time) float64 { return float64(t.UnixNano()) / 1e9 }

// emit queues one report for the uplink, flushing full frames.
func (r *liveRun) emit(id int, rep motion.Report) {
	r.batch.Append(wire.Update{Node: uint32(id), Report: rep})
	if r.batch.Len() >= maxBatch {
		r.flush()
	}
}

func (r *liveRun) flush() {
	if r.batch.Len() == 0 || r.driveErr != nil {
		return
	}
	r.frame = wire.AppendUpdateBatch(r.frame[:0], &r.batch)
	_ = r.up.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if _, err := r.up.Write(r.frame); err != nil {
		r.driveErr = fmt.Errorf("uplink write: %w", err)
		return
	}
	r.written.Add(int64(r.batch.Len()))
	r.batch.Reset()
}

// setup boots lirad and brings it to the measured state: gateways
// camped and their assignments compiled, every node's first report
// applied, then every standing query registered and answered once.
func (r *liveRun) setup(bin string) error {
	d, err := startLirad(bin, r.s.liradArgs())
	if err != nil {
		return err
	}
	r.d = d
	if r.up, err = net.Dial("tcp", d.addr); err != nil {
		return err
	}
	go r.readUplink()
	var hello []byte
	for g, st := range r.w.stations {
		hello = wire.AppendHello(hello, wire.Hello{Node: uint32(r.w.gate0 + g), Pos: st.Center})
	}
	if _, err := r.up.Write(hello); err != nil {
		return err
	}
	if err := r.waitFor("first assignment of every station", func() bool {
		return r.assignments.Load() >= int64(len(r.w.stations))
	}); err != nil {
		return err
	}
	r.w.mu.Lock()
	r.w.start(unixOf(time.Now()), r.emit)
	r.flush()
	r.w.mu.Unlock()
	if r.driveErr != nil {
		return r.driveErr
	}
	if err := r.waitFor("initial reports applied", func() bool {
		m, err := d.scrape()
		return err == nil && m["lira_ledger_applied"] >= float64(r.s.Nodes)
	}); err != nil {
		return err
	}
	if r.qc, err = net.Dial("tcp", d.addr); err != nil {
		return err
	}
	go r.readResults()
	var reg []byte
	for q, rect := range r.w.rects {
		reg = wire.AppendQuery(reg, wire.Query{ID: uint32(q), Rect: rect})
	}
	if _, err := r.qc.Write(reg); err != nil {
		return err
	}
	return r.waitFor("first result of every query", func() bool {
		r.pmu.Lock()
		defer r.pmu.Unlock()
		for _, l := range r.last {
			if l.at.IsZero() {
				return false
			}
		}
		return true
	})
}

// waitFor polls cond until it holds, lirad dies, or 20 s pass.
func (r *liveRun) waitFor(what string, cond func() bool) error {
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if !r.d.alive() {
			return invalidf("lirad exited while waiting for %s\n%s", what, r.d.log())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

func (r *liveRun) close() {
	if r.up != nil {
		r.up.Close()
	}
	if r.qc != nil {
		r.qc.Close()
	}
	if r.d != nil {
		r.d.stop()
	}
}

// readUplink installs every assignment lirad broadcasts to the gateways.
// It ends when the uplink is closed.
func (r *liveRun) readUplink() {
	fr := wire.NewFrameReader(bufio.NewReaderSize(r.up, 64<<10))
	for {
		typ, payload, err := fr.Next()
		if err != nil {
			return
		}
		if typ != wire.TypeAssignment {
			continue // the capability hello
		}
		wa, err := wire.DecodeAssignment(payload)
		if err != nil {
			continue
		}
		r.w.mu.Lock()
		r.w.install(wa)
		r.w.mu.Unlock()
		r.assignments.Add(1)
	}
}

func contains(sorted []uint32, id uint32) bool {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= id })
	return i < len(sorted) && sorted[i] == id
}

// readResults consumes the query connection: it resolves pending probe
// flips and registrations, samples containment error on every fourth
// frame of a fixed query, and keeps each query's latest result for the
// final verification. It ends when the connection is closed.
func (r *liveRun) readResults() {
	fr := wire.NewFrameReader(bufio.NewReaderSize(r.qc, 256<<10))
	for {
		typ, payload, err := fr.Next()
		if err != nil {
			return
		}
		now := time.Now()
		if typ != wire.TypeResult {
			continue
		}
		res, err := wire.DecodeResult(payload)
		if err != nil || int(res.ID) >= len(r.last) {
			continue
		}
		q := int(res.ID)
		r.pmu.Lock()
		r.last[q] = lastResult{res.Nodes, now}
		sample := false
		if now.After(r.winStart) && now.Before(r.winEnd) { // both zero until measure starts
			r.frames[q]++
			sample = q < r.w.fixedQ && r.frames[q]%4 == 0
		}
		if q < r.w.fixedQ {
			for _, p := range r.byQuery[q] {
				pr := &r.probes[p]
				if pr.pending && contains(res.Nodes, uint32(r.w.probe0+p)) == pr.target {
					pr.pending, pr.inside = false, pr.target
					r.samples = append(r.samples, probeSample{float64(now.Sub(pr.due)) / 1e6, pr.step})
				}
			}
		} else if q == r.regQ && contains(res.Nodes, r.regNode) {
			r.regQ = -1
			r.regDone <- now
		}
		r.pmu.Unlock()
		if sample {
			r.w.mu.Lock()
			r.w.containment(q, res.Nodes, unixOf(now))
			r.w.mu.Unlock()
		}
	}
}

// probeSchedule lays out the probe flips for the whole run: one per 1/rate
// slot, at a seeded uniform offset inside its slot, so flips are
// de-phased from the generator's steps and the server's ticks.
func probeSchedule(seed uint64, rate float64, total time.Duration) []time.Duration {
	rnd := rng.New(seed).Split(5)
	slot := float64(time.Second) / rate
	n := int(float64(total) / slot)
	out := make([]time.Duration, n)
	for k := range out {
		out[k] = time.Duration((float64(k) + rnd.Float64()) * slot)
	}
	return out
}

// stepAt is the ladder step in force at time t (0 off the ladder and
// during warm-up) and whether an operation due at t is scored: inside the
// window and, on a ladder, not in the last stepGuard of its step — what
// is offered then is drained, or shed from the rings, under the next
// step's rate.
func (r *liveRun) stepAt(t time.Time) (step int, scored bool) {
	if t.Before(r.winStart) || !t.Before(r.winEnd) {
		return 0, false
	}
	if r.s.Ladder == nil {
		return 0, true
	}
	off := t.Sub(r.winStart)
	return int(off / r.stepLen), r.stepLen-off%r.stepLen > stepGuard
}

// flip sends the next free probe to its other point. A probe still
// pending after probeTimeout is a miss; it is retried toward the same
// target, so a lost report cannot fake an instant match later.
func (r *liveRun) flip(due time.Time) {
	r.pmu.Lock()
	defer r.pmu.Unlock()
	for range r.probeOrder {
		p := r.probeOrder[r.nextProbe]
		r.nextProbe = (r.nextProbe + 1) % len(r.probeOrder)
		pr := &r.probes[p]
		if pr.pending {
			if due.Sub(pr.due) < probeTimeout {
				continue
			}
			r.samples = append(r.samples, probeSample{math.Inf(1), pr.step})
		}
		step, scored := r.stepAt(due)
		if !scored {
			step = -1
		}
		*pr = probe{inside: pr.inside, pending: true, target: !pr.inside, due: due, step: step}
		pos := r.w.probeOut[p]
		if pr.target {
			pos = r.w.probeIn[p]
		}
		r.w.parked[p] = pos
		r.emit(r.w.probe0+p, motion.Report{Pos: pos, Time: unixOf(due)})
		return
	}
}

// drive is the open-loop generator: it fires walker steps, forced-report
// slots and probe flips when each is due, never waiting for lirad, and
// records how late it ran and how busy it was. It returns at winEnd.
func (r *liveRun) drive() {
	var nextStep, nextSlot, nextFlip int
	owed := 0.0
	for {
		stepDue := r.t0.Add(time.Duration(nextStep+1) * groupEvery)
		due, kind := stepDue, 0
		if r.s.Ladder != nil {
			if d := r.t0.Add(time.Duration(nextSlot+1) * paceSlot); d.Before(due) {
				due, kind = d, 1
			}
		}
		if nextFlip < len(r.flips) {
			if d := r.t0.Add(r.flips[nextFlip]); d.Before(due) {
				due, kind = d, 2
			}
		}
		if !due.Before(r.winEnd) || r.driveErr != nil {
			return
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		begin := time.Now()
		_, scored := r.stepAt(due)
		if scored {
			r.late = append(r.late, float64(begin.Sub(due))/1e6)
		}
		switch kind {
		case 0:
			r.w.mu.Lock()
			dt := simDt
			if nextStep < groups { // the first round only covers the group's phase offset
				dt = (time.Duration(nextStep+1) * groupEvery).Seconds()
			}
			r.w.stepGroup(nextStep%groups, dt, unixOf(due), r.emit)
			r.w.mu.Unlock()
			nextStep++
		case 1:
			step, _ := r.stepAt(due)
			owed += r.s.Ladder[step] * paceSlot.Seconds()
			n := int(owed)
			owed -= float64(n)
			r.w.mu.Lock()
			r.w.forced(n, unixOf(due), r.emit)
			r.w.mu.Unlock()
			nextSlot++
		case 2:
			r.flip(due)
			nextFlip++
		}
		r.flush()
		if scored {
			r.busy += time.Since(begin)
		}
	}
}

// registrar is the closed-loop query writer: one outstanding operation,
// a seeded, jittered think time between operations. Each operation
// re-centres one churn query on another marker node and waits for the
// first Result of that query containing the marker. It returns when stop
// is closed.
func (r *liveRun) registrar(stop <-chan struct{}) {
	var frame []byte
	jitter := rng.New(r.seed).Split(7)
	for op := 0; ; op++ {
		// Think time is uniform on [0.5, 1.5) × Think, so operations do not
		// lock onto a phase of the server's evaluation tick.
		select {
		case <-stop:
			return
		case <-time.After(time.Duration((0.5 + jitter.Float64()) * float64(r.s.Think))):
		}
		slot := op % r.s.Churn
		r.w.mu.Lock()
		rect, node := r.w.nextChurn(slot)
		r.w.mu.Unlock()
		q := r.w.fixedQ + slot
		r.pmu.Lock()
		r.regQ, r.regNode = q, uint32(node)
		r.pmu.Unlock()
		frame = wire.AppendQuery(frame[:0], wire.Query{ID: uint32(q), Rect: rect})
		sent := time.Now()
		_, scored := r.stepAt(sent)
		if _, err := r.qc.Write(frame); err != nil {
			return
		}
		var ms float64
		select {
		case at := <-r.regDone:
			ms = float64(at.Sub(sent)) / 1e6
		case <-time.After(probeTimeout):
			r.pmu.Lock()
			r.regQ = -1
			r.pmu.Unlock()
			select { // the reader may have completed it just now
			case <-r.regDone:
			default:
			}
			ms = math.Inf(1)
		}
		if scored {
			r.regAttempts++
			if math.IsInf(ms, 1) {
				r.regFailed++
			} else {
				r.regMs = append(r.regMs, ms)
			}
		}
	}
}

// scraper snapshots lirad's counters and CPU time every 100 ms until
// stop is closed; window and step boundaries are read off the series.
func (r *liveRun) scraper(stop <-chan struct{}) {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		r.snap()
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}

func (r *liveRun) snap() {
	m, err := r.d.scrape()
	if err != nil {
		return
	}
	cpu, err := r.d.cpuSeconds()
	if err != nil {
		return
	}
	r.smu.Lock()
	r.snaps = append(r.snaps, snapshot{time.Now(), m, cpu})
	r.smu.Unlock()
}

// snapAt returns the first snapshot taken at or after t.
func (r *liveRun) snapAt(t time.Time) (snapshot, error) {
	r.smu.Lock()
	defer r.smu.Unlock()
	for _, s := range r.snaps {
		if !s.at.Before(t) {
			return s, nil
		}
	}
	return snapshot{}, invalidf("no counter snapshot at or after +%v", t.Sub(r.t0))
}

// measure runs warm-up and the measured window against the lirad that
// setup prepared, then settles and verifies.
func (r *liveRun) measure(window time.Duration) error {
	s, w := r.s, r.w
	r.flips = probeSchedule(r.seed, s.FlipRate, warmup+window)
	r.stepLen = window
	if s.Ladder != nil {
		r.stepLen = window / time.Duration(len(s.Ladder))
	}
	r.pmu.Lock() // readResults reads the window bounds under pmu
	r.t0 = time.Now()
	r.winStart, r.winEnd = r.t0.Add(warmup), r.t0.Add(warmup+window)
	r.pmu.Unlock()

	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { defer bg.Done(); r.scraper(stop) }()
	go func() { defer bg.Done(); r.registrar(stop) }()
	scoreAt := time.AfterFunc(warmup, func() {
		w.mu.Lock()
		w.scoring = true
		w.mu.Unlock()
	})
	r.drive()
	scoreAt.Stop()
	w.mu.Lock()
	w.scoring = false
	w.mu.Unlock()
	time.Sleep(150 * time.Millisecond) // one more snapshot past the window's end
	close(stop)
	bg.Wait()
	if r.driveErr != nil {
		return r.driveErr
	}
	if !r.d.alive() {
		return invalidf("lirad exited during the run\n%s", r.d.log())
	}
	return r.settleAndVerify()
}

// settleAndVerify parks every node, waits until lirad has applied
// everything it was offered, and requires each query's next result to
// equal a brute-force scan of the parked positions.
func (r *liveRun) settleAndVerify() error {
	w := r.w
	now := unixOf(time.Now())
	pos := make([]geo.Point, r.s.Nodes)
	w.mu.Lock()
	for i := 0; i < w.walkers; i++ {
		rep := wire.QuantizeReport(motion.Report{Pos: w.truePos(i, now), Time: now})
		pos[i] = rep.Pos
		r.emit(i, rep)
	}
	for k, p := range w.parked {
		rep := wire.QuantizeReport(motion.Report{Pos: p, Time: now})
		pos[w.probe0+k] = rep.Pos
		r.emit(w.probe0+k, rep)
	}
	r.flush()
	rects := append([]geo.Rect(nil), w.rects...)
	w.mu.Unlock()
	if r.driveErr != nil {
		return r.driveErr
	}
	var final map[string]float64
	if err := r.waitFor("lirad to apply every offered record", func() bool {
		m, err := r.d.scrape()
		if err != nil {
			return false
		}
		final = m
		return m["lira_ledger_offered"] == float64(r.written.Load()) &&
			m["lira_ledger_queued"] == 0 && m["lira_ledger_balance"] == 0
	}); err != nil {
		if final != nil {
			return fmt.Errorf("%w: generator wrote %d records, lirad reports offered=%v queued=%v balance=%v",
				err, r.written.Load(), final["lira_ledger_offered"], final["lira_ledger_queued"], final["lira_ledger_balance"])
		}
		return err
	}
	quiet := time.Now()
	if err := r.waitFor("a settled result of every query", func() bool {
		r.pmu.Lock()
		defer r.pmu.Unlock()
		for _, l := range r.last {
			if !l.at.After(quiet) {
				return false
			}
		}
		return true
	}); err != nil {
		return err
	}
	r.pmu.Lock()
	got := make([][]uint32, len(r.last))
	for q, l := range r.last {
		got[q] = l.nodes
	}
	r.pmu.Unlock()
	if err := verifyResults(rects, pos, got); err != nil {
		return err
	}
	if v := final["lira_ledger_violations_total"]; v != 0 {
		return fmt.Errorf("check failed: lira_ledger_violations_total = %v", v)
	}
	return nil
}

// verifyResults requires got[q] to equal the brute-force scan of pos for
// every query rectangle.
func verifyResults(rects []geo.Rect, pos []geo.Point, got [][]uint32) error {
	for q, rect := range rects {
		want := oracle(rect, pos)
		if len(want) != len(got[q]) {
			return fmt.Errorf("check failed: query %d has %d members, brute force finds %d", q, len(got[q]), len(want))
		}
		for i := range want {
			if want[i] != got[q][i] {
				return fmt.Errorf("check failed: query %d member %d is node %d, brute force finds %d", q, i, got[q][i], want[i])
			}
		}
	}
	return nil
}

// oracle is the reference evaluation: ids, ascending, of the positions
// inside the closed rectangle.
func oracle(rect geo.Rect, pos []geo.Point) []uint32 {
	var ids []uint32
	for id, p := range pos {
		if rect.ContainsClosed(p) {
			ids = append(ids, uint32(id))
		}
	}
	return ids
}
