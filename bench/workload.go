package main

import (
	"fmt"
	"strconv"
	"time"
)

// Space and dead-reckoning constants shared by every workload; they are
// lirad's defaults (the paper's 200 km² square, Δ⊢ = 5 m, Δ⊣ = 100 m).
const (
	spaceSide = 14142.0
	queueSize = 65536
	minDelta  = 5.0
	maxDelta  = 100.0
	fairness  = 50.0 // lirad's -fairness default
	simDt     = 0.1  // walker simulation step, seconds
	minSpeed  = 2.0
	maxSpeed  = 25.0
	markers   = 64 // parked nodes the registrar re-centres churned queries on
)

// spec is one workload: the lirad flags it runs under and the traffic
// the generator offers. Durations that scale with -seconds are derived
// in run.go.
type spec struct {
	Name string
	Why  string

	Nodes         int // lirad -nodes: walkers + probes + markers + gateways
	Shards        int
	L             int
	Z             float64
	Eval, Adapt   time.Duration
	StationRadius float64

	Queries        int     // standing queries
	Churn          int     // of which the registrar owns and replaces
	QSideMin, QMax float64 // query side range, metres
	Think          time.Duration

	Turn    float64   // per-step turn probability of a walker
	Hotspot bool      // half the walkers steer toward an orbiting hotspot
	Ladder  []float64 // forced-report rates (upd/s), one per step; nil = dead-reckoning traffic only
	RefStep int       // ladder steps scored for probe latency (the lowest ones)

	Probes   int
	FlipRate float64 // probe flips per second
}

// workloads is the suite. Each stresses a different group of layers; the
// K=1 and K=2 engines each get one ingest-light and one evaluate-heavy
// workload.
var workloads = []spec{
	{
		Name:  "ingest_ramp",
		Why:   "open-loop ladder of forced reports to 1.6M upd/s over 5000 nodes, 16 queries, K=2: wire decode, admission, shard rings and drain dominate; finds the sustainable rate and the cost per applied record",
		Nodes: 5000, Shards: 2, L: 250, Z: 1, Eval: 100 * time.Millisecond, Adapt: 5 * time.Second,
		Queries: 16, Churn: 4, QSideMin: 500, QMax: 1000, Think: 250 * time.Millisecond,
		Turn: 0.05, Ladder: []float64{100e3, 200e3, 400e3, 800e3, 1600e3}, RefStep: 3,
		Probes: 400, FlipRate: 150,
	},
	{
		Name:  "resident_eval",
		Why:   "50000 resident nodes, 250 standing queries, 50 ms ticks at K=1 with dead-reckoning traffic only: predict, index rebuild, scan, result sort and encode dominate while ingest is negligible",
		Nodes: 50000, Shards: 1, L: 250, Z: 1, Eval: 50 * time.Millisecond, Adapt: 5 * time.Second,
		Queries: 250, Churn: 8, QSideMin: 1000, QMax: 1500, Think: 250 * time.Millisecond,
		Turn:   0.005,
		Probes: 400, FlipRate: 100,
	},
	{
		Name:  "shed_adapt",
		Why:   "z=0.3, 1000 regions re-adapted every 200 ms over 16 stations: GRIDREDUCE, GREEDYINCREMENT, deployment and assignment broadcast dominate; the only workload that trades accuracy for load",
		Nodes: 20000, Shards: 1, L: 1000, Z: 0.3, Eval: 100 * time.Millisecond, Adapt: 200 * time.Millisecond,
		StationRadius: 3000,
		Queries:       256, Churn: 4, QSideMin: 300, QMax: 600, Think: 250 * time.Millisecond,
		Turn: 0.02, Hotspot: true,
		Probes: 400, FlipRate: 100,
	},
	{
		Name:  "query_churn",
		Why:   "40000 nodes at K=2 with a closed-loop registrar replacing one of 200 standing queries per operation: every registration drains and re-evaluates under the server mutex, so writes run beside reads",
		Nodes: 40000, Shards: 2, L: 250, Z: 1, Eval: 100 * time.Millisecond, Adapt: 5 * time.Second,
		Queries: 200, Churn: 100, QSideMin: 500, QMax: 1000, Think: 40 * time.Millisecond,
		Turn:   0.005,
		Probes: 400, FlipRate: 100,
	},
}

func findWorkload(name string) (*spec, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// liradArgs is the exact argv (after the binary) the workload runs lirad
// with. Ports are ephemeral; the addresses are read from lirad's stderr.
func (s *spec) liradArgs() []string {
	a := []string{
		"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0",
		"-side", strconv.FormatFloat(spaceSide, 'f', -1, 64),
		"-queue", strconv.Itoa(queueSize),
		"-nodes", strconv.Itoa(s.Nodes),
		"-shards", strconv.Itoa(s.Shards),
		"-l", strconv.Itoa(s.L),
		"-z", strconv.FormatFloat(s.Z, 'f', -1, 64),
		"-eval", s.Eval.String(),
		"-adapt", s.Adapt.String(),
	}
	if s.StationRadius > 0 {
		a = append(a, "-station-radius", strconv.FormatFloat(s.StationRadius, 'f', -1, 64))
	}
	return a
}
