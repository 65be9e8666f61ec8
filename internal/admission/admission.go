// Package admission implements health-driven admission control above
// THROTLOOP: a deterministic, hysteresis-damped controller that samples
// system-health signals once per control tick — input queue/ring
// occupancy, goroutine census, Evaluate p99 latency, and GC pause — and
// walks a four-state degradation ladder (healthy → warning → shed →
// critical). THROTLOOP sheds by *modeled inaccuracy*; this layer sheds by
// *system health*, composing with the control plane instead of replacing
// it.
//
// Each rung takes one concrete, reversible action through an existing
// seam:
//
//   - warning tightens the effective throttle fraction handed to the
//     control plane (Plane.SetZClamp ∘ Controller.ClampZ);
//   - shed additionally switches queue admission to oldest-first bulk
//     rejection ahead of the input queue (AdmitN) and defers
//     debt-triggered index compaction (Actions.SetCompactionDeferred);
//   - critical forces z to the floor and answers Evaluate from prediction
//     only (Actions.SetDegradedEval), degrading accuracy instead of
//     availability.
//
// # Determinism contract
//
// The ladder walk is a pure function of the signal sequence fed to
// Observe: no wall clock, no randomness, one rung of movement per tick at
// most. Escalation requires EscalateAfter consecutive ticks whose signals
// demand a higher rung; stepping down requires RecoverAfter consecutive
// ticks calm even under the deflated exit thresholds (enter × ExitRatio),
// so the ladder cannot flap around a threshold. Every Observe journals
// the full signal vector and the resulting state via internal/telemetry
// on model time, so a seeded run reproduces its ladder byte-for-byte.
//
// Observe, ClampZ, and View are safe to call concurrently with AdmitN
// (ingest producers); Observe itself is single-caller (the owner's
// control tick), like an engine drive loop.
package admission

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"lira/internal/telemetry"
)

// State is a rung of the degradation ladder, ordered by severity.
type State int32

// The ladder rungs, in escalation order.
const (
	// Healthy takes no action: admission is transparent.
	Healthy State = iota
	// Warning tightens the effective throttle fraction (ClampZ).
	Warning
	// Shed additionally pre-rejects ingest oldest-first ahead of the
	// queue (AdmitN) and defers index compaction.
	Shed
	// Critical forces z to the floor and switches the engine to
	// prediction-only evaluation.
	Critical
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Warning:
		return "warning"
	case Shed:
		return "shed"
	case Critical:
		return "critical"
	}
	return fmt.Sprintf("State(%d)", int32(s))
}

// Signals is one per-tick health-signal vector.
type Signals struct {
	// QueueFrac is the input queue/ring occupancy in [0, 1], sampled
	// before the tick's drain (the backlog the previous tick left).
	QueueFrac float64 `json:"queue_frac"`
	// Goroutines is the process goroutine census.
	Goroutines float64 `json:"goroutines"`
	// EvalP99 is the p99 Evaluate latency in seconds, read from the
	// telemetry histogram (Histogram.Quantile), not scraped.
	EvalP99 float64 `json:"eval_p99"`
	// GCPause is the most recent GC stop-the-world pause in seconds.
	GCPause float64 `json:"gc_pause"`
}

// Thresholds holds per-signal enter thresholds for the three elevated
// rungs, indexed Warning-1, Shed-1, Critical-1. A signal at or above its
// rung-i threshold demands rung i+1. Non-positive or +Inf entries disable
// that rung for that signal.
type Thresholds struct {
	QueueFrac  [3]float64
	Goroutines [3]float64
	EvalP99    [3]float64
	GCPause    [3]float64
}

// DefaultThresholds returns production-shaped defaults: queue occupancy
// is the primary ladder driver; the process-health signals (goroutines,
// p99, GC pause) catch degradation the queue cannot see.
func DefaultThresholds() Thresholds {
	return Thresholds{
		QueueFrac:  [3]float64{0.50, 0.80, 0.95},
		Goroutines: [3]float64{2000, 5000, 10000},
		EvalP99:    [3]float64{0.050, 0.200, 0.500},
		GCPause:    [3]float64{0.010, 0.050, 0.200},
	}
}

// zero reports whether t is the zero value (caller wants defaults).
func (t Thresholds) zero() bool { return t == Thresholds{} }

// demand returns the highest rung (0..3) the signal vector demands under
// thresholds scaled by scale (1 for entry, ExitRatio for the sticky exit
// check).
func (t Thresholds) demand(sig Signals, scale float64) State {
	d := Healthy
	for rung := 2; rung >= 0; rung-- {
		if over(sig.QueueFrac, t.QueueFrac[rung], scale) ||
			over(sig.Goroutines, t.Goroutines[rung], scale) ||
			over(sig.EvalP99, t.EvalP99[rung], scale) ||
			over(sig.GCPause, t.GCPause[rung], scale) {
			d = State(rung + 1)
			break
		}
	}
	return d
}

func over(v, threshold, scale float64) bool {
	if threshold <= 0 || math.IsInf(threshold, 1) {
		return false // disabled
	}
	return v >= threshold*scale
}

// Actions is the engine seam the shed and critical rungs act through.
// Both evaluation engines implement it; every call is reversible.
type Actions interface {
	// SetCompactionDeferred defers debt-triggered index compaction while
	// set (a no-op on engines that rebuild in full each round).
	SetCompactionDeferred(on bool)
	// SetDegradedEval switches Evaluate to prediction-only refresh of the
	// previous results while set (no index maintenance, no fragment
	// scans; accuracy degrades, availability does not).
	SetDegradedEval(on bool)
}

// Config parameterizes a Controller.
type Config struct {
	// Thresholds are the rung-entry thresholds; the zero value selects
	// DefaultThresholds.
	Thresholds Thresholds
	// ExitRatio deflates the entry thresholds for the step-down check
	// (hysteresis band): a rung is left only when every signal sits below
	// enter × ExitRatio. Zero selects 0.8; values are clamped to (0, 1].
	ExitRatio float64
	// EscalateAfter is how many consecutive ticks must demand a higher
	// rung before the ladder steps up one. Zero selects 2.
	EscalateAfter int
	// RecoverAfter is how many consecutive calm ticks must pass before
	// the ladder steps down one. Zero selects 10.
	RecoverAfter int

	// ZWarn and ZShed cap the effective throttle fraction at the warning
	// and shed rungs; ZFloor is the forced fraction at critical. Zeros
	// select 0.75, 0.40, and 0.05.
	ZWarn, ZShed, ZFloor float64

	// ShedAdmit and CriticalAdmit are the ingest fractions admitted ahead
	// of the queue at the shed and critical rungs (oldest-first bulk
	// rejection keeps the newest admitted·n records of every batch).
	// Zeros select 0.5 and 0.25.
	ShedAdmit, CriticalAdmit float64

	// Actions receives the shed/critical engine actions; nil disables
	// them (the ladder still walks and journals).
	Actions Actions
	// Telemetry, when non-nil, receives the admission metrics and one
	// journal record per Observe. Passive: decisions are identical
	// without it.
	Telemetry *telemetry.Hub
}

func (c *Config) fillDefaults() {
	if c.Thresholds.zero() {
		c.Thresholds = DefaultThresholds()
	}
	if c.ExitRatio <= 0 || c.ExitRatio > 1 {
		c.ExitRatio = 0.8
	}
	if c.EscalateAfter <= 0 {
		c.EscalateAfter = 2
	}
	if c.RecoverAfter <= 0 {
		c.RecoverAfter = 10
	}
	if c.ZWarn <= 0 || c.ZWarn > 1 {
		c.ZWarn = 0.75
	}
	if c.ZShed <= 0 || c.ZShed > 1 {
		c.ZShed = 0.40
	}
	if c.ZFloor <= 0 || c.ZFloor > 1 {
		c.ZFloor = 0.05
	}
	if c.ShedAdmit <= 0 || c.ShedAdmit > 1 {
		c.ShedAdmit = 0.5
	}
	if c.CriticalAdmit <= 0 || c.CriticalAdmit > 1 {
		c.CriticalAdmit = 0.25
	}
}

// admitScale is the fixed-point denominator of the pre-ring admission
// accumulator: fractions quantize to 1/64ths so AdmitN stays integer
// arithmetic over a running total (deterministic, allocation-free).
const admitScale = 64

// Controller walks the degradation ladder. Build one with New.
type Controller struct {
	cfg Config
	tel *admTelemetry

	// state mirrors the current rung for lock-free readers (AdmitN,
	// ClampZ); admitNum is the current admitted fraction numerator over
	// admitScale (admitScale ⇒ admit everything, fast path).
	state    atomic.Int32
	admitNum atomic.Int64
	offered  atomic.Int64 // cumulative records offered to AdmitN
	admitted atomic.Int64 // cumulative records admitted by AdmitN

	transitions atomic.Int64

	// mu guards the tick-sequential fields against View readers; Observe
	// is single-caller.
	mu           sync.Mutex
	up, down     int
	ticksInState int
	last         Signals
}

// admTelemetry holds pre-resolved metric pointers (one registry lookup at
// construction). Nil when no hub is configured.
type admTelemetry struct {
	hub *telemetry.Hub

	state       *telemetry.Gauge   // lira_admission_state
	transitions *telemetry.Counter // lira_admission_transitions_total
	preShed     *telemetry.Counter // lira_admission_preshed_total
	queueFrac   *telemetry.Gauge   // lira_admission_queue_frac
	goroutines  *telemetry.Gauge   // lira_admission_goroutines
	evalP99     *telemetry.Gauge   // lira_admission_eval_p99_seconds
	gcPause     *telemetry.Gauge   // lira_admission_gc_pause_seconds
}

func newAdmTelemetry(hub *telemetry.Hub) *admTelemetry {
	if hub == nil {
		return nil
	}
	r := hub.Registry
	return &admTelemetry{
		hub:         hub,
		state:       r.Gauge("lira_admission_state"),
		transitions: r.Counter("lira_admission_transitions_total"),
		preShed:     r.Counter("lira_admission_preshed_total"),
		queueFrac:   r.Gauge("lira_admission_queue_frac"),
		goroutines:  r.Gauge("lira_admission_goroutines"),
		evalP99:     r.Gauge("lira_admission_eval_p99_seconds"),
		gcPause:     r.Gauge("lira_admission_gc_pause_seconds"),
	}
}

// New validates cfg and returns a controller in the Healthy state.
func New(cfg Config) (*Controller, error) {
	cfg.fillDefaults()
	if cfg.ZFloor > cfg.ZShed || cfg.ZShed > cfg.ZWarn {
		return nil, fmt.Errorf("admission: z ladder not monotone: floor %.3f ≤ shed %.3f ≤ warn %.3f required",
			cfg.ZFloor, cfg.ZShed, cfg.ZWarn)
	}
	c := &Controller{cfg: cfg, tel: newAdmTelemetry(cfg.Telemetry)}
	c.admitNum.Store(admitScale)
	return c, nil
}

// State returns the current rung.
func (c *Controller) State() State { return State(c.state.Load()) }

// Observe feeds one control tick's signal vector, walks the ladder at
// most one rung, applies the rung's engine actions on transitions, and
// returns the resulting state. Single-caller.
func (c *Controller) Observe(sig Signals) State {
	cur := State(c.state.Load())
	enter := c.cfg.Thresholds.demand(sig, 1)
	exit := c.cfg.Thresholds.demand(sig, c.cfg.ExitRatio)

	c.mu.Lock()
	next := cur
	switch {
	case enter > cur:
		c.down = 0
		if c.up++; c.up >= c.cfg.EscalateAfter {
			next, c.up = cur+1, 0
		}
	case exit < cur:
		c.up = 0
		if c.down++; c.down >= c.cfg.RecoverAfter {
			next, c.down = cur-1, 0
		}
	default:
		c.up, c.down = 0, 0
	}
	if next != cur {
		c.ticksInState = 0
	} else {
		c.ticksInState++
	}
	c.last = sig
	c.mu.Unlock()

	if next != cur {
		c.transition(cur, next)
	}
	c.journal(sig, cur, next, enter)
	return next
}

// transition publishes the new rung and applies its engine actions.
func (c *Controller) transition(from, to State) {
	c.state.Store(int32(to))
	switch {
	case to >= Critical:
		c.admitNum.Store(int64(math.Round(c.cfg.CriticalAdmit * admitScale)))
	case to >= Shed:
		c.admitNum.Store(int64(math.Round(c.cfg.ShedAdmit * admitScale)))
	default:
		c.admitNum.Store(admitScale)
	}
	c.transitions.Add(1)
	if a := c.cfg.Actions; a != nil {
		if (from >= Shed) != (to >= Shed) {
			a.SetCompactionDeferred(to >= Shed)
		}
		if (from >= Critical) != (to >= Critical) {
			a.SetDegradedEval(to >= Critical)
		}
	}
}

// journal emits the per-tick record and refreshes the signal gauges.
func (c *Controller) journal(sig Signals, from, to State, demanded State) {
	if c.tel == nil {
		return
	}
	c.tel.state.Set(float64(to))
	c.tel.queueFrac.Set(sig.QueueFrac)
	c.tel.goroutines.Set(sig.Goroutines)
	c.tel.evalP99.Set(sig.EvalP99)
	c.tel.gcPause.Set(sig.GCPause)
	ev := &telemetry.AdmissionEvent{
		State:      to.String(),
		Demanded:   demanded.String(),
		QueueFrac:  sig.QueueFrac,
		Goroutines: sig.Goroutines,
		EvalP99:    sig.EvalP99,
		GCPause:    sig.GCPause,
		ZCap:       c.ClampZ(1),
	}
	if from != to {
		ev.From = from.String()
		c.tel.transitions.Inc()
		// Rung transitions are rare and load-bearing: emit a span so a
		// trace shows exactly where the ladder moved amid the evaluate
		// and adapt spans around it. Observe is single-caller (the
		// background tick), so span creation order stays deterministic.
		c.tel.hub.Spans().Start("rung_transition", "admission").
			Str("from", from.String()).Str("to", to.String()).
			Num("queue_frac", sig.QueueFrac).Num("eval_p99", sig.EvalP99).End()
	}
	c.tel.hub.Record(telemetry.Record{Kind: telemetry.KindAdmission, Admission: ev})
}

// ClampZ tightens a throttle fraction per the current rung: warning and
// shed cap it (min), critical forces the floor. Install it on the control
// plane with Plane.SetZClamp. Safe for concurrent use.
func (c *Controller) ClampZ(z float64) float64 {
	switch State(c.state.Load()) {
	case Warning:
		return math.Min(z, c.cfg.ZWarn)
	case Shed:
		return math.Min(z, c.cfg.ZShed)
	case Critical:
		return c.cfg.ZFloor
	}
	return z
}

// AdmitN is the pre-ring admission gate: offered a batch of n records in
// arrival order, it returns how many of the newest to admit (the caller
// enqueues the suffix — oldest-first bulk rejection). Below the shed rung
// every record is admitted. The admitted count tracks the configured
// fraction exactly over the cumulative offered total (fixed-point
// accumulator, no randomness), so it is deterministic for a serialized
// offer sequence and allocation-free always. Safe for concurrent
// producers.
func (c *Controller) AdmitN(n int) int {
	if n <= 0 {
		return 0
	}
	num := c.admitNum.Load()
	if num >= admitScale {
		return n
	}
	total := c.offered.Add(int64(n))
	keep := int(total*num/admitScale - (total-int64(n))*num/admitScale)
	if rejected := n - keep; rejected > 0 {
		if c.tel != nil {
			c.tel.preShed.Add(int64(rejected))
		}
	}
	c.admitted.Add(int64(keep))
	return keep
}

// PreShed returns the cumulative count of records rejected ahead of the
// queue by AdmitN.
func (c *Controller) PreShed() int64 { return c.offered.Load() - c.admitted.Load() }

// View is a point-in-time snapshot of the ladder for introspection
// endpoints (/debug/lira).
type View struct {
	State        string  `json:"state"`
	StateCode    int     `json:"state_code"`
	TicksInState int     `json:"ticks_in_state"`
	Transitions  int64   `json:"transitions"`
	PreShed      int64   `json:"pre_shed"`
	ZCap         float64 `json:"z_cap"`
	Signals      Signals `json:"signals"`
}

// View snapshots the controller. Safe to call concurrently with Observe.
func (c *Controller) View() View {
	c.mu.Lock()
	ticks, last := c.ticksInState, c.last
	c.mu.Unlock()
	st := State(c.state.Load())
	return View{
		State:        st.String(),
		StateCode:    int(st),
		TicksInState: ticks,
		Transitions:  c.transitions.Load(),
		PreShed:      c.PreShed(),
		ZCap:         c.ClampZ(1),
		Signals:      last,
	}
}

// Transitions returns the number of rung changes since construction.
func (c *Controller) Transitions() int64 { return c.transitions.Load() }
