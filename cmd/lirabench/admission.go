package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"lira/internal/admission"
	"lira/internal/cqserver"
	"lira/internal/engine"
	"lira/internal/fmodel"
	"lira/internal/geo"
	"lira/internal/motion"
	"lira/internal/telemetry"
	"lira/internal/workload"
)

// admissionTransition is one journaled rung change in the ladder
// timeline.
type admissionTransition struct {
	Tick      int     `json:"tick"`
	From      string  `json:"from"`
	To        string  `json:"to"`
	QueueFrac float64 `json:"queue_frac"`
	Rate      float64 `json:"offered_rate"`
}

// admissionReport is the schema of the -admissionjson artifact
// (BENCH_PR7.json): one seeded flash-crowd overload driven through the
// degradation ladder on model time, plus the healthy-state overhead
// comparison.
type admissionReport struct {
	Command string `json:"command"`
	Nodes   int    `json:"nodes"`
	Ticks   int    `json:"ticks"`
	Seed    uint64 `json:"seed"`

	BaseRate    float64 `json:"base_rate"`
	PeakRate    float64 `json:"peak_rate"`
	ServiceRate int     `json:"service_rate"`

	Transitions    []admissionTransition `json:"transitions"`
	EscalationTick int                   `json:"escalation_tick"` // first tick at ≥ shed
	PeakState      string                `json:"peak_state"`
	RecoveryTick   int                   `json:"recovery_tick"`  // first healthy tick after the peak
	RecoveryTicks  int                   `json:"recovery_ticks"` // ticks from end of overload to healthy

	PreShed        int64   `json:"pre_shed"`        // records rejected ahead of the queue
	QueueShed      int64   `json:"queue_shed"`      // records shed by ring overflow
	DegradedEvals  int64   `json:"degraded_evals"`  // prediction-only Evaluate rounds
	JournalRecords int     `json:"journal_records"` // admission records journaled
	MinZCap        float64 `json:"min_z_cap"`       // tightest effective z the ladder enforced

	// HealthyOverheadPct is the controller's healthy-path work — one
	// AdmitN per batch plus one Observe per tick, timed in isolation —
	// as a fraction of the baseline simulation tick (ingest + drain +
	// evaluate at base rate). The acceptance budget is ≤ 1%. The
	// paired on/off tick times are reported alongside for reference;
	// their difference sits below the scheduler-noise floor, which is
	// exactly why the budget is checked against the direct measurement.
	HealthyOverheadPct float64 `json:"healthy_overhead_pct"`
	OverheadBudgetMet  bool    `json:"overhead_budget_met"`
	AdmissionOpMS      float64 `json:"healthy_admission_op_ms"`
	HealthyTickOnMS    float64 `json:"healthy_tick_on_ms"`
	HealthyTickOffMS   float64 `json:"healthy_tick_off_ms"`
}

// admissionSim bundles one engine + ladder + flash crowd on model time.
type admissionSim struct {
	eng   engine.Engine
	adm   *admission.Controller
	crowd *workload.FlashCrowd
	hub   *telemetry.Hub
	now   float64

	service int // drain budget per tick (the fixed consumer speed)

	buf []cqserver.Update // per-tick emission scratch
}

const admissionSpaceSide = 2000.0

func newAdmissionSim(nodes int, seed uint64, withLadder bool) (*admissionSim, error) {
	space := geo.Rect{MinX: 0, MinY: 0, MaxX: admissionSpaceSide, MaxY: admissionSpaceSide}
	base := float64(nodes) / 10
	crowd, err := workload.NewFlashCrowd(space, workload.FlashCrowdConfig{
		Nodes:    nodes,
		BaseRate: base,
		PeakRate: 4 * base,
		Seed:     seed,
	})
	if err != nil {
		return nil, err
	}
	sim := &admissionSim{crowd: crowd, service: int(2 * base)}
	sim.hub = telemetry.NewHub(0)
	sim.hub.SetClock(func() float64 { return sim.now })
	eng, err := engine.New(cqserver.Config{
		Space:     space,
		Nodes:     nodes,
		L:         13,
		QueueSize: int(8 * base),
		Curve:     fmodel.Hyperbolic(5, 100, 19),
		Telemetry: sim.hub,
	}, 1)
	if err != nil {
		return nil, err
	}
	sim.eng = eng
	queries, err := workload.GenerateQueries(space, nil, workload.QueryConfig{
		Count: 16, SideLength: admissionSpaceSide / 8, Distribution: workload.Random, Seed: seed + 1,
	})
	if err != nil {
		return nil, err
	}
	eng.RegisterQueries(queries)
	if withLadder {
		adm, err := admission.New(admission.Config{
			// Queue occupancy drives the walk; the process-health signals
			// are disabled so the bench is a pure function of the seed.
			Thresholds:    admission.Thresholds{QueueFrac: [3]float64{0.50, 0.80, 0.95}},
			EscalateAfter: 2,
			RecoverAfter:  5,
			Actions:       eng,
			Telemetry:     sim.hub,
		})
		if err != nil {
			return nil, err
		}
		sim.adm = adm
		eng.ControlPlane().SetZClamp(adm.ClampZ)
	}
	return sim, nil
}

// tick advances the simulation one model second: emit the crowd's
// reports, gate them through the ladder (oldest-first pre-shed), walk
// the ladder on the pre-drain occupancy, then drain at the fixed service
// rate and evaluate. Returns the post-ingest queue occupancy.
func (s *admissionSim) tick() float64 {
	s.now++
	s.buf = s.buf[:0]
	s.crowd.Emit(s.now, func(node int, pos geo.Point, vel geo.Vector) {
		s.buf = append(s.buf, cqserver.Update{
			Node:   node,
			Report: motion.Report{Pos: pos, Vel: vel, Time: s.now},
		})
	})
	admit := len(s.buf)
	if s.adm != nil {
		admit = s.adm.AdmitN(len(s.buf))
	}
	for _, u := range s.buf[len(s.buf)-admit:] {
		s.eng.IngestShedOldest(u)
	}
	occ := 0.0
	if c := s.eng.QueueCap(); c > 0 {
		occ = float64(s.eng.QueueLen()) / float64(c)
	}
	if s.adm != nil {
		s.adm.Observe(admission.Signals{QueueFrac: occ})
	}
	s.eng.Drain(s.service)
	s.eng.Evaluate(s.now)
	return occ
}

// runAdmissionBench drives the seeded flash-crowd overload through the
// degradation ladder and writes the BENCH_PR7 report.
func runAdmissionBench(nodes, ticks int, seed uint64, outPath string) error {
	sim, err := newAdmissionSim(nodes, seed, true)
	if err != nil {
		return err
	}
	if ticks <= 0 {
		// The envelope plus a recovery tail long enough for the drain and
		// the damped walk home.
		ticks = sim.crowd.Ticks() + 60
	}
	rep := admissionReport{
		Command:        strings.Join(append([]string{"lirabench"}, os.Args[1:]...), " "),
		Nodes:          nodes,
		Ticks:          ticks,
		Seed:           seed,
		BaseRate:       sim.crowd.Rate(0),
		ServiceRate:    sim.service,
		EscalationTick: -1,
		RecoveryTick:   -1,
		MinZCap:        1,
	}
	for t := 0; t < ticks; t++ {
		if r := sim.crowd.Rate(t); r > rep.PeakRate {
			rep.PeakRate = r
		}
	}

	overloadEnd := sim.crowd.Ticks()
	peak := admission.Healthy
	prev := admission.Healthy
	for t := 1; t <= ticks; t++ {
		occ := sim.tick()
		st := sim.adm.State()
		if st != prev {
			rep.Transitions = append(rep.Transitions, admissionTransition{
				Tick: t, From: prev.String(), To: st.String(),
				QueueFrac: occ, Rate: sim.crowd.Rate(t - 1),
			})
			prev = st
		}
		if st > peak {
			peak = st
		}
		if rep.EscalationTick < 0 && st >= admission.Shed {
			rep.EscalationTick = t
		}
		if z := sim.adm.ClampZ(1); z < rep.MinZCap {
			rep.MinZCap = z
		}
		if rep.EscalationTick > 0 && rep.RecoveryTick < 0 && t > overloadEnd && st == admission.Healthy {
			rep.RecoveryTick = t
		}
	}
	rep.PeakState = peak.String()
	if rep.RecoveryTick > 0 {
		rep.RecoveryTicks = rep.RecoveryTick - overloadEnd
	}
	rep.PreShed = sim.adm.PreShed()
	rep.QueueShed = sim.eng.Dropped()
	rep.DegradedEvals = sim.hub.Registry.Counter("lira_evaluate_degraded_total").Value()
	rep.JournalRecords = sim.hub.Journal.CountKind(telemetry.KindAdmission)

	// Healthy-state overhead: the same simulation pinned to base rate
	// (no surge ⇒ the ladder never leaves healthy), ladder in vs out of
	// the path, plus a direct timing of the per-tick controller work.
	onMS, offMS, err := admissionHealthyTickCost(nodes, seed)
	if err != nil {
		return err
	}
	opMS, err := admissionOpCost(int(rep.BaseRate))
	if err != nil {
		return err
	}
	rep.HealthyTickOnMS, rep.HealthyTickOffMS = onMS, offMS
	rep.AdmissionOpMS = opMS
	if offMS > 0 {
		rep.HealthyOverheadPct = opMS / offMS * 100
	}
	rep.OverheadBudgetMet = rep.HealthyOverheadPct <= 1.0

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outPath == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"wrote %s (peak=%s escalation@%d recovery@%d preshed=%d overhead=%.3f%%)\n",
		outPath, rep.PeakState, rep.EscalationTick, rep.RecoveryTick, rep.PreShed, rep.HealthyOverheadPct)
	return nil
}

// admissionHealthyTickCost measures the per-tick wall cost of the
// steady-state (healthy) simulation with and without the admission
// controller in the path. The ladder never escalates at base rate, so
// the comparison isolates the healthy overhead: one AdmitN fast path
// per batch plus one Observe per tick. The on/off runs are interleaved
// (on, off, on, off, ...) and the best run per side is kept, so slow
// drift — GC cycles, CPU frequency scaling — cannot land on one side
// and masquerade as controller cost.
func admissionHealthyTickCost(nodes int, seed uint64) (onMS, offMS float64, err error) {
	const runs, ticks = 7, 400
	run := func(withLadder bool) (float64, error) {
		sim, err := newAdmissionSim(nodes, seed, withLadder)
		if err != nil {
			return 0, err
		}
		for i := 0; i < ticks/4; i++ { // warm the caches and the allocator
			sim.tickHealthy()
		}
		runtime.GC() // keep collection pauses out of the timed window
		t0 := time.Now()
		for i := 0; i < ticks; i++ {
			sim.tickHealthy()
		}
		return float64(time.Since(t0).Microseconds()) / 1e3 / ticks, nil
	}
	best := func(cur, ms float64) float64 {
		if cur == 0 || ms < cur {
			return ms
		}
		return cur
	}
	for r := 0; r < runs; r++ {
		on, err := run(true)
		if err != nil {
			return 0, 0, err
		}
		off, err := run(false)
		if err != nil {
			return 0, 0, err
		}
		onMS, offMS = best(onMS, on), best(offMS, off)
	}
	return onMS, offMS, nil
}

// admissionOpCost times the controller's entire healthy-path work for
// one tick — the AdmitN fast path over the tick's batch plus one
// Observe (threshold walk, gauge updates, journal append) against a
// live telemetry hub — in isolation. The paired tick comparison cannot
// resolve this sub-microsecond delta under scheduler noise; the direct
// measurement can, so the overhead budget is checked against it.
func admissionOpCost(batch int) (float64, error) {
	hub := telemetry.NewHub(0)
	tick := 0.0
	hub.SetClock(func() float64 { return tick })
	adm, err := admission.New(admission.Config{
		Thresholds: admission.Thresholds{QueueFrac: [3]float64{0.50, 0.80, 0.95}},
		Telemetry:  hub,
	})
	if err != nil {
		return 0, err
	}
	const iters = 50000
	sig := admission.Signals{QueueFrac: 0.10}
	runtime.GC()
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		tick++
		adm.AdmitN(batch)
		adm.Observe(sig)
	}
	return float64(time.Since(t0).Microseconds()) / 1e3 / iters, nil
}

// tickHealthy is tick with the crowd pinned to base rate: the emission
// count is the envelope's t=0 rate, so the queue never backs up and the
// ladder (when present) stays healthy.
func (s *admissionSim) tickHealthy() {
	s.now++
	s.buf = s.buf[:0]
	want := int(s.crowd.Rate(0) + 0.5)
	s.crowd.Emit(s.now, func(node int, pos geo.Point, vel geo.Vector) {
		if len(s.buf) >= want {
			return
		}
		s.buf = append(s.buf, cqserver.Update{
			Node:   node,
			Report: motion.Report{Pos: pos, Vel: vel, Time: s.now},
		})
	})
	admit := len(s.buf)
	if s.adm != nil {
		admit = s.adm.AdmitN(len(s.buf))
	}
	for _, u := range s.buf[len(s.buf)-admit:] {
		s.eng.IngestShedOldest(u)
	}
	occ := 0.0
	if c := s.eng.QueueCap(); c > 0 {
		occ = float64(s.eng.QueueLen()) / float64(c)
	}
	if s.adm != nil {
		s.adm.Observe(admission.Signals{QueueFrac: occ})
	}
	s.eng.Drain(s.service)
	s.eng.Evaluate(s.now)
}
