// Command lirad runs the LIRA mobile CQ server as a network daemon: it
// listens for node and query clients speaking the binary wire protocol,
// maintains the statistics grid from the update stream, and periodically
// re-runs the adaptation, broadcasting fresh shedding regions and update
// throttlers.
//
// Usage:
//
//	lirad -listen 127.0.0.1:7400 -nodes 10000 -l 250 -z 0.5 \
//	      -http 127.0.0.1:7401
//
// With -shards K (K > 1) the daemon deploys the spatially sharded
// evaluation engine: updates are admitted through the same input queue of
// size -queue as at K = 1 and routed to their band as they drain, and
// /metrics grows lira_shard<N>_* gauges. Query results and overload
// behaviour are byte-identical at any K.
//
// With -admission the daemon walks the health-driven degradation
// ladder (healthy → warning → shed → critical) each control tick:
// warning tightens the effective z, shed pre-rejects the oldest
// fraction of ingest ahead of the queue and defers index compaction,
// and critical answers queries from prediction alone. The ladder state
// appears in /debug/lira under "admission" and as lira_admission_*
// metrics; every rung change is journaled.
//
// With -http set, the daemon serves live introspection: /metrics in the
// Prometheus text format, /debug/lira as a JSON snapshot of the shedding
// pipeline (current z, region tree, Δᵢ table, decision-journal tail), and
// — with -pprof — the net/http/pprof profile handlers. -journal streams
// every decision record to a JSONL file.
//
// With -spans the daemon traces the pipeline — frame ingest, batch
// decode, admission verdicts, drain, the adaptation's GRIDREDUCE /
// GREEDYINCREMENT / THROTLOOP stages, and query evaluation — into a
// bounded in-memory ring served as Chrome trace-event JSON at
// /debug/lira/spans (load it in Perfetto or chrome://tracing).
// -spanssample N keeps every Nth root trace; -spanscap bounds the ring.
//
// The -slo-* flags arm the burn-rate tracker: -slo-evalp99 bounds the
// Evaluate p99 (seconds), -slo-inaccuracy bounds the shed fraction of
// offered records, and -slo-rung bounds the admission-ladder state
// ordinal; each tracks a multi-window error-budget burn against
// -slo-objective and surfaces lira_slo_* metrics, KindSLO journal
// records, and an "slo" block in /debug/lira.
//
// Drive it with cmd/liranode.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lira/internal/admission"
	"lira/internal/basestation"
	"lira/internal/cqserver"
	"lira/internal/fmodel"
	"lira/internal/geo"
	"lira/internal/netsvc"
	"lira/internal/slo"
	"lira/internal/spans"
	"lira/internal/telemetry"
)

// options is the daemon configuration, one field per flag.
type options struct {
	listen    string
	nodes     int
	l         int
	z         float64
	side      float64
	fairness  float64
	queue     int
	drain     int
	adapt     time.Duration
	eval      time.Duration
	stations  float64
	shards    int
	admission bool
	httpAddr  string
	pprof     bool
	journal   string

	spans       bool
	spansSample int
	spansCap    int

	sloEvalP99    float64
	sloInaccuracy float64
	sloRung       float64
	sloObjective  float64
	sloWindow     int

	logf func(format string, args ...any) // nil silences progress output
}

func parseFlags() options {
	var o options
	flag.StringVar(&o.listen, "listen", "127.0.0.1:7400", "listen address")
	flag.IntVar(&o.nodes, "nodes", 10000, "maximum node id + 1")
	flag.IntVar(&o.l, "l", 250, "number of shedding regions")
	flag.Float64Var(&o.z, "z", 0.5, "throttle fraction")
	flag.Float64Var(&o.side, "side", 14142, "space side length (meters)")
	flag.Float64Var(&o.fairness, "fairness", 50, "fairness threshold Δ⇔ (meters)")
	flag.IntVar(&o.queue, "queue", 0, "ingest queue capacity (0 = engine default)")
	flag.IntVar(&o.drain, "drain", 0, "emulated service rate: max updates applied per background tick, with no drains between ticks (0 = serve the queue continuously)")
	flag.DurationVar(&o.adapt, "adapt", 30*time.Second, "adaptation period")
	flag.DurationVar(&o.eval, "eval", 2*time.Second, "query evaluation period")
	flag.Float64Var(&o.stations, "station-radius", 0, "uniform station radius; 0 = one station")
	flag.IntVar(&o.shards, "shards", 1, "spatial shard count K (1 = unsharded engine; >1 shards evaluation over K bands)")
	flag.BoolVar(&o.admission, "admission", false, "enable the health-driven admission ladder (default thresholds)")
	flag.StringVar(&o.httpAddr, "http", "", "introspection listen address (/metrics, /debug/lira); empty disables")
	flag.BoolVar(&o.pprof, "pprof", false, "also serve net/http/pprof on the -http address")
	flag.StringVar(&o.journal, "journal", "", "append decision-journal records to this JSONL file")
	flag.BoolVar(&o.spans, "spans", false, "trace the pipeline into /debug/lira/spans (Chrome trace-event JSON)")
	flag.IntVar(&o.spansSample, "spanssample", 1, "keep every Nth root trace (head sampling)")
	flag.IntVar(&o.spansCap, "spanscap", 0, "span ring capacity (0 = default 8192)")
	flag.Float64Var(&o.sloEvalP99, "slo-evalp99", 0, "SLO bound on Evaluate p99 seconds (0 disables)")
	flag.Float64Var(&o.sloInaccuracy, "slo-inaccuracy", 0, "SLO bound on the shed fraction of offered records (0 disables)")
	flag.Float64Var(&o.sloRung, "slo-rung", -1, "SLO bound on the admission-ladder rung ordinal (negative disables)")
	flag.Float64Var(&o.sloObjective, "slo-objective", 0.99, "required good-tick fraction per SLO")
	flag.IntVar(&o.sloWindow, "slo-window", 0, "SLO long window in ticks (0 = default 240)")
	flag.Parse()
	o.logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format, args...) }
	return o
}

// daemon is one running lirad: the CQ server, the optional
// introspection listener, and the journal sink. start builds it;
// shutdown unwinds it in reverse order, draining every goroutine.
type daemon struct {
	srv     *netsvc.Server
	hub     *telemetry.Hub
	obs     *http.Server
	obsLn   net.Listener
	obsDone chan struct{}
	sink    *os.File
}

// start boots a daemon from o. On error, everything partially started
// is torn back down.
func start(o options) (*daemon, error) {
	d := &daemon{hub: telemetry.NewHub(0)}
	logf := o.logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if o.journal != "" {
		f, err := os.OpenFile(o.journal, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		d.sink = f
		d.hub.Journal.SetSink(f)
	}
	if o.spans {
		d.hub.SetSpans(spans.New(spans.Config{
			Capacity: o.spansCap,
			Sample:   o.spansSample,
			Seed:     1,
		}))
	}

	space := geo.Rect{MinX: 0, MinY: 0, MaxX: o.side, MaxY: o.side}
	cfg := netsvc.ServerConfig{
		Core: cqserver.Config{
			Space:     space,
			Nodes:     o.nodes,
			L:         o.l,
			QueueSize: o.queue,
			Curve:     fmodel.Hyperbolic(5, 100, 95),
			Fairness:  o.fairness,
		},
		Shards:       o.shards,
		Z:            o.z,
		AdaptEvery:   o.adapt,
		EvalEvery:    o.eval,
		DrainPerTick: o.drain,
		Telemetry:    d.hub,
	}
	if o.admission {
		cfg.Admission = &admission.Config{} // zero value → default ladder
	}
	// SLO targets arm only with a valid objective, so a zero-value
	// options (tests construct one directly) means "no SLOs" rather
	// than a config error.
	if o.sloObjective > 0 && o.sloObjective < 1 {
		var sloTargets []slo.Target
		if o.sloEvalP99 > 0 {
			sloTargets = append(sloTargets, slo.Target{Name: "eval_p99", Bound: o.sloEvalP99, Objective: o.sloObjective})
		}
		if o.sloInaccuracy > 0 {
			sloTargets = append(sloTargets, slo.Target{Name: "inaccuracy", Bound: o.sloInaccuracy, Objective: o.sloObjective})
		}
		if o.sloRung >= 0 {
			sloTargets = append(sloTargets, slo.Target{Name: "rung", Bound: o.sloRung, Objective: o.sloObjective})
		}
		if len(sloTargets) > 0 {
			cfg.SLO = &slo.Config{Targets: sloTargets, Window: o.sloWindow}
		}
	}
	if o.stations > 0 {
		sts, err := basestation.PlaceUniform(space, o.stations)
		if err != nil {
			d.closeSink()
			return nil, err
		}
		cfg.Stations = sts
	}
	srv, err := netsvc.Listen(o.listen, cfg)
	if err != nil {
		d.closeSink()
		return nil, err
	}
	d.srv = srv
	logf("lirad: serving %v (l=%d, z=%.2f, %d stations, %d shards, admission=%v)\n",
		srv.Addr(), o.l, o.z, max(1, len(cfg.Stations)), srv.Sharded(), o.admission)

	if o.httpAddr != "" {
		ln, err := net.Listen("tcp", o.httpAddr)
		if err != nil {
			d.shutdown()
			return nil, err
		}
		mux := telemetry.NewMux(d.hub, func() any { return srv.Introspect() }, o.pprof)
		d.obsLn = ln
		d.obs = &http.Server{Handler: mux}
		d.obsDone = make(chan struct{})
		go func() {
			defer close(d.obsDone)
			if err := d.obs.Serve(ln); err != nil && err != http.ErrServerClosed {
				logf("lirad: introspection server: %v\n", err)
			}
		}()
		logf("lirad: introspection on http://%s/metrics and /debug/lira\n", ln.Addr())
	}
	return d, nil
}

// httpAddr returns the bound introspection address ("" when disabled).
func (d *daemon) httpAddr() string {
	if d.obsLn == nil {
		return ""
	}
	return d.obsLn.Addr().String()
}

// shutdown stops the daemon: the introspection server first (waiting
// for its serve goroutine), then the CQ server (which drains every
// per-connection goroutine), then the journal sink.
func (d *daemon) shutdown() error {
	var first error
	if d.obs != nil {
		if err := d.obs.Close(); err != nil && first == nil {
			first = err
		}
		<-d.obsDone
		d.obs, d.obsLn = nil, nil
	}
	if d.srv != nil {
		if err := d.srv.Close(); err != nil && first == nil {
			first = err
		}
		d.srv = nil
	}
	if err := d.hub.Journal.Err(); err != nil && first == nil {
		first = fmt.Errorf("journal sink: %w", err)
	}
	d.closeSink()
	return first
}

func (d *daemon) closeSink() {
	if d.sink != nil {
		d.sink.Close()
		d.sink = nil
	}
}

func main() {
	o := parseFlags()
	d, err := start(o)
	if err != nil {
		fatal(err)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "lirad: shutting down")
	if err := d.shutdown(); err != nil {
		fatal(err)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lirad:", err)
	os.Exit(1)
}
