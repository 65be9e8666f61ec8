package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"sync"
)

// Kind tags one decision-journal record.
type Kind string

// The journal record kinds, one per control-loop actor.
const (
	// KindThrotloop is one THROTLOOP observation: the controller read
	// utilization ρ and set the throttle fraction z for a queue of size B.
	KindThrotloop Kind = "throtloop"
	// KindRepartition is one GRIDREDUCE run: the space was re-partitioned
	// into shedding regions by accuracy-gain drill-down.
	KindRepartition Kind = "repartition"
	// KindAssign is one GREEDYINCREMENT run: the per-region throttlers Δᵢ
	// were (re)assigned.
	KindAssign Kind = "assign"
	// KindNet is one deployment-layer degradation event (disconnect,
	// reconnect, panic isolation, reconnect give-up).
	KindNet Kind = "net"
	// KindAdmission is one admission-control tick: the sampled health
	// signals and the degradation-ladder state they produced.
	KindAdmission Kind = "admission"
	// KindSLO is one service-level-objective burn observation: an SLO's
	// multi-window burn rates and alert state (recorded on alert
	// transitions and on a sparse heartbeat, never every tick).
	KindSLO Kind = "slo"
)

// ThrotloopEvent records one feedback-controller observation (ρ, z, B).
type ThrotloopEvent struct {
	Rho float64 `json:"rho"`
	Z   float64 `json:"z"`
	B   int     `json:"b"`
}

// RepartitionEvent records one GRIDREDUCE repartition: the resulting
// region count and the drill-down decisions behind it.
type RepartitionEvent struct {
	Z       float64 `json:"z"`
	Regions int     `json:"regions"`
	// SplitsTaken counts accuracy-gain drill-downs taken (regions split
	// into four); SplitsRejected counts drill-downs rejected because the
	// popped region was an unsplittable grid-cell leaf; ProtectSplits
	// counts splits spent by the query-protection extension.
	SplitsTaken    int `json:"splits_taken"`
	SplitsRejected int `json:"splits_rejected"`
	ProtectSplits  int `json:"protect_splits,omitempty"`
}

// AssignEvent records one GREEDYINCREMENT assignment: the per-region
// throttlers, their final update gains, and the fairness activity.
type AssignEvent struct {
	Z       float64 `json:"z"`
	Regions int     `json:"regions"`
	// Deltas is the assigned throttler Δᵢ per region; Gains the final
	// update gain Sᵢ = (nᵢ/mᵢ)·sᵢ·r(Δᵢ) at the assigned Δᵢ (query-free
	// regions report +Inf, capped to math.MaxFloat64 in JSON output).
	Deltas []float64 `json:"deltas"`
	Gains  []float64 `json:"gains,omitempty"`
	// FairnessClamps counts greedy steps parked at the fairness limit Δ⇔.
	FairnessClamps int  `json:"fairness_clamps"`
	BudgetMet      bool `json:"budget_met"`
}

// NetEvent records one deployment-layer degradation event.
type NetEvent struct {
	// Event is one of "disconnect", "reconnect", "give-up", "panic",
	// "reject".
	Event string `json:"event"`
	// Peer identifies the affected endpoint ("node-3", "query", "conn").
	Peer string `json:"peer,omitempty"`
	// Node is the mobile-node id when one is known, else -1.
	Node int64 `json:"node"`
	// Detail carries a short cause ("deadline", "read", "partition").
	Detail string `json:"detail,omitempty"`
}

// AdmissionEvent records one admission-control tick: the per-tick health
// signal vector and the ladder state after the hysteresis-damped walk.
// From is set only on transitions (the rung just left); Demanded is the
// rung the raw signals asked for before damping.
type AdmissionEvent struct {
	State    string `json:"state"`
	From     string `json:"from,omitempty"`
	Demanded string `json:"demanded"`

	QueueFrac  float64 `json:"queue_frac"`
	Goroutines float64 `json:"goroutines"`
	EvalP99    float64 `json:"eval_p99"`
	GCPause    float64 `json:"gc_pause"`
	// ZCap is the effective throttle-fraction ceiling the rung imposes
	// (1 at healthy, the configured floor at critical).
	ZCap float64 `json:"z_cap"`
}

// SLOEvent records one SLO burn observation: the measured value against
// its target, the short- and long-window burn rates (error-budget
// consumption speed: 1.0 = exactly on budget), and whether the
// multi-window alert is firing.
type SLOEvent struct {
	Name string `json:"name"`
	// Value is the sampled indicator; Target its configured bound; Good
	// whether this tick met the objective.
	Value  float64 `json:"value"`
	Target float64 `json:"target"`
	Good   bool    `json:"good"`
	// BurnShort/BurnLong are the burn rates over the two windows;
	// Alerting is the multi-window verdict (both windows over threshold).
	BurnShort float64 `json:"burn_short"`
	BurnLong  float64 `json:"burn_long"`
	Alerting  bool    `json:"alerting"`
}

// Record is one journal entry. Exactly one of the event pointers is
// non-nil, selected by Kind. Seq is assigned by the journal; Tick is the
// simulation time of the decision (never wall clock in simulation mode).
type Record struct {
	Seq  uint64  `json:"seq"`
	Tick float64 `json:"tick"`
	Kind Kind    `json:"kind"`

	Throtloop   *ThrotloopEvent   `json:"throtloop,omitempty"`
	Repartition *RepartitionEvent `json:"repartition,omitempty"`
	Assign      *AssignEvent      `json:"assign,omitempty"`
	Net         *NetEvent         `json:"net,omitempty"`
	Admission   *AdmissionEvent   `json:"admission,omitempty"`
	SLO         *SLOEvent         `json:"slo,omitempty"`
}

// Journal is a bounded in-memory ring of decision records with an
// optional JSONL sink. Appends are goroutine-safe; when the ring is full
// the oldest record is evicted (the sink, if set, has already persisted
// it).
type Journal struct {
	mu      sync.Mutex
	buf     []Record
	start   int
	size    int
	seq     uint64
	sink    io.Writer
	sinkErr error
}

// NewJournal returns a journal retaining the last capacity records
// in memory (<= 0 selects 1024).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Journal{buf: make([]Record, capacity)}
}

// SetSink directs every subsequent record to w as one JSON object per
// line, in append order. The journal serializes writes; w need not be
// goroutine-safe. The first write error is retained (Err) and disables
// the sink.
func (j *Journal) SetSink(w io.Writer) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.sink = w
	j.sinkErr = nil
}

// Err returns the first sink write error, if any.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sinkErr
}

// Append assigns the record a sequence number and stores it. Slices
// inside the record are not copied; callers must not mutate them after
// appending.
func (j *Journal) Append(rec Record) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	rec.Seq = j.seq
	if j.size < len(j.buf) {
		j.buf[(j.start+j.size)%len(j.buf)] = rec
		j.size++
	} else {
		j.buf[j.start] = rec
		j.start = (j.start + 1) % len(j.buf)
	}
	if j.sink != nil && j.sinkErr == nil {
		data, err := json.Marshal(rec)
		if err == nil {
			_, err = j.sink.Write(append(data, '\n'))
		}
		if err != nil {
			j.sinkErr = err
			j.sink = nil
		}
	}
}

// MarshalJSON serializes the record, capping the non-finite update gains
// of query-free regions (Sᵢ = +Inf) to math.MaxFloat64 so the output is
// JSON-legal. The capping is value-preserving for ordering: +Inf gains
// still compare above every finite gain.
func (r Record) MarshalJSON() ([]byte, error) {
	if r.Assign != nil && hasNonFinite(r.Assign.Gains) {
		a := *r.Assign
		gains := make([]float64, len(a.Gains))
		for i, g := range a.Gains {
			switch {
			case math.IsInf(g, 1) || g > math.MaxFloat64:
				g = math.MaxFloat64
			case math.IsInf(g, -1):
				g = -math.MaxFloat64
			case math.IsNaN(g):
				g = 0
			}
			gains[i] = g
		}
		a.Gains = gains
		r.Assign = &a
	}
	type plain Record // drops the MarshalJSON method
	return json.Marshal(plain(r))
}

func hasNonFinite(vs []float64) bool {
	for _, v := range vs {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return true
		}
	}
	return false
}

// Len returns the number of retained records.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// Seq returns the sequence number of the most recent record (0 before
// the first append) — i.e. the total number of records ever appended.
func (j *Journal) Seq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Tail returns the most recent n records, oldest first. n <= 0 or n
// larger than the retained count returns everything retained.
func (j *Journal) Tail(n int) []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n <= 0 || n > j.size {
		n = j.size
	}
	out := make([]Record, n)
	for i := 0; i < n; i++ {
		out[i] = j.buf[(j.start+j.size-n+i)%len(j.buf)]
	}
	return out
}

// CountKind returns how many retained records have the given kind.
func (j *Journal) CountKind(k Kind) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for i := 0; i < j.size; i++ {
		if j.buf[(j.start+i)%len(j.buf)].Kind == k {
			n++
		}
	}
	return n
}
