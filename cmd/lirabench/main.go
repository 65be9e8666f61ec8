// Command lirabench regenerates the tables and figures of the LIRA paper's
// evaluation section (§4). Each experiment prints an aligned text table
// with a note recalling what the paper reports, so shape comparisons are
// immediate. The tables are deterministic under a fixed seed (Figure 14,
// the paper's own adaptation-cost timing, is the exception). lirabench
// has no benchmark mode: serving-path timings come from `go run ./bench`,
// which drives a live lirad over sockets.
//
// Usage:
//
//	lirabench -exp all                 # everything, quick scale
//	lirabench -exp fig4,fig5 -scale paper
//	lirabench -nodes 4000 -exp fig9
//	lirabench -parallel 4              # 4 sweep workers, same tables
//	lirabench -exp fig9 -expshards 4   # same tables on the K=4 sharded engine
//	lirabench -policy -policyjson BENCH_PR10.json
//
// Scales: "quick" (default) runs a reduced environment in a couple of
// minutes; "paper" uses the full Table 2 parameters (10 000 nodes, ≈200
// km², l = 250) and takes correspondingly longer.
//
// -parallel sets the sweep worker count (0 = GOMAXPROCS, 1 = serial) and
// -expshards the engine's shard count; results are byte-identical at
// every setting of either. -policy switches from the figures to the
// measured policy comparison (every registry policy, measured E^C/E^P at
// equal throttle fractions), which is byte-deterministic under a fixed
// seed and command line; -policyjson also writes it as JSON.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"lira/internal/experiment"
	"lira/internal/roadnet"
	"lira/internal/workload"
)

// options are lirabench's flags.
type options struct {
	exps      string
	scale     string
	nodes     int
	duration  int
	seed      uint64
	parallel  int
	expShards int
	policy    bool
	polOut    string
}

func bindFlags(fs *flag.FlagSet) *options {
	var o options
	fs.StringVar(&o.exps, "exp", "all", "comma-separated experiment ids: "+strings.Join(expIDs(), ",")+" or all")
	fs.StringVar(&o.scale, "scale", "quick", "quick | paper")
	fs.IntVar(&o.nodes, "nodes", 0, "override mobile node count")
	fs.IntVar(&o.duration, "duration", 0, "override measured ticks per run")
	fs.Uint64Var(&o.seed, "seed", 1, "environment seed")
	fs.IntVar(&o.parallel, "parallel", 0, "sweep worker count: 0 = GOMAXPROCS, 1 = serial")
	fs.IntVar(&o.expShards, "expshards", 0, "run every -exp sweep on the K-sharded engine (0 = unsharded); results are byte-identical at any K")
	fs.BoolVar(&o.policy, "policy", false, "measured policy-comparison mode: run every canonical-registry policy (random-drop through hysteresis) through full reference-vs-candidate simulations over the road trace and a flash-crowd scenario, reporting measured E^C/E^P at equal throttle fractions")
	fs.StringVar(&o.polOut, "policyjson", "", "write the measured policy-comparison JSON report (BENCH_PR10.json) to this path; implies nothing unless -policy is set")
	return &o
}

// figureSet is one generator call: a driver that returns one figure per
// id (Figures 4 and 5 share a sweep, every other set is a single figure).
type figureSet struct {
	ids []string
	gen func(*experiment.Env, experiment.Sweep) ([]*experiment.Figure, error)
}

func single(id string, fn func(*experiment.Env, experiment.Sweep) (*experiment.Figure, error)) figureSet {
	return figureSet{[]string{id}, func(env *experiment.Env, sw experiment.Sweep) ([]*experiment.Figure, error) {
		f, err := fn(env, sw)
		return []*experiment.Figure{f}, err
	}}
}

// figureSets lists every experiment in print order; its ids are the only
// values -exp accepts besides "all".
var figureSets = []figureSet{
	single("fig1", func(env *experiment.Env, _ experiment.Sweep) (*experiment.Figure, error) {
		return experiment.Figure1(env), nil
	}),
	single("fig3", func(env *experiment.Env, sw experiment.Sweep) (*experiment.Figure, error) {
		f, _, err := experiment.Figure3(env, sw.Base)
		return f, err
	}),
	{[]string{"fig4", "fig5"}, func(env *experiment.Env, sw experiment.Sweep) ([]*experiment.Figure, error) {
		f4, f5, err := experiment.Figures4and5(env, sw)
		return []*experiment.Figure{f4, f5}, err
	}},
	single("fig6", func(env *experiment.Env, sw experiment.Sweep) (*experiment.Figure, error) {
		return experiment.Figure6or7(env, sw, workload.Inverse)
	}),
	single("fig7", func(env *experiment.Env, sw experiment.Sweep) (*experiment.Figure, error) {
		return experiment.Figure6or7(env, sw, workload.Random)
	}),
	single("fig8", experiment.Figure8),
	single("fig9", experiment.Figure9),
	single("fig10", experiment.Figure10),
	single("fig11", experiment.Figure11),
	single("fig12", experiment.Figure12),
	single("fig13", experiment.Figure13),
	single("fig14", experiment.Figure14),
	single("table3", experiment.Table3),
}

func expIDs() []string {
	var ids []string
	for _, fs := range figureSets {
		ids = append(ids, fs.ids...)
	}
	return ids
}

// parseExps validates a comma-separated -exp list and returns the wanted
// ids; "all" selects every id. An id figureSets does not list is an error
// — it would otherwise select nothing and print nothing.
func parseExps(list string) (map[string]bool, error) {
	known := expIDs()
	wanted := map[string]bool{}
	for _, id := range strings.Split(list, ",") {
		id = strings.TrimSpace(id)
		switch {
		case id == "all":
			for _, k := range known {
				wanted[k] = true
			}
		case slices.Contains(known, id):
			wanted[id] = true
		default:
			return nil, fmt.Errorf("unknown experiment id %q (want %s or all)", id, strings.Join(known, ","))
		}
	}
	return wanted, nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lirabench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lirabench", flag.ExitOnError)
	o := bindFlags(fs)
	_ = fs.Parse(args) // ExitOnError: a bad flag has already exited 2

	wanted, err := parseExps(o.exps)
	if err != nil {
		return err
	}

	if o.policy {
		pNodes, pTicks := 1200, 120
		if o.nodes > 0 {
			pNodes = o.nodes
		}
		if o.duration > 0 {
			pTicks = o.duration
		}
		return runPolicyBench(pNodes, pTicks, 22, o.seed, o.parallel, o.polOut)
	}

	envCfg, sweep, err := configsFor(o.scale)
	if err != nil {
		return err
	}
	if o.nodes > 0 {
		envCfg.Nodes = o.nodes
	}
	if o.duration > 0 {
		sweep.Base.DurationTicks = o.duration
	}
	envCfg.Net.Seed = o.seed
	envCfg.TraceSeed = o.seed + 1
	sweep.Parallel = o.parallel
	// Engine selection for every figure driver: each driver copies
	// sweep.Base, so one assignment here runs the whole -exp set at K
	// shards (RunConfig.Shards threads it through experiment.Run).
	if o.expShards > 0 {
		sweep.Base.Shards = o.expShards
	}

	fmt.Fprintf(os.Stderr, "building environment: %d nodes, %.0f km² space, calibrating f(Δ)...\n",
		envCfg.Nodes, spaceArea(envCfg)/1e6)
	start := time.Now()
	env, err := experiment.NewEnv(envCfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "environment ready in %v (f(Δ⊣) = %.3f)\n\n",
		time.Since(start).Round(time.Millisecond), env.Curve.Eval(env.Curve.MaxDelta()))

	for _, set := range figureSets {
		if !slices.ContainsFunc(set.ids, func(id string) bool { return wanted[id] }) {
			continue
		}
		t0 := time.Now()
		figs, err := set.gen(env, sweep)
		if err != nil {
			return fmt.Errorf("%s: %w", strings.Join(set.ids, "+"), err)
		}
		note := fmt.Sprintf("generated in %v", time.Since(t0).Round(time.Millisecond))
		if len(figs) > 1 {
			note += " (shared sweep)"
		}
		for i, f := range figs {
			if wanted[set.ids[i]] {
				f.Notes = append(f.Notes, note)
				f.Render(os.Stdout)
			}
		}
	}
	return nil
}

// configsFor maps a scale name to an environment and sweep.
func configsFor(scale string) (experiment.EnvConfig, experiment.Sweep, error) {
	switch scale {
	case "paper":
		envCfg := experiment.DefaultEnvConfig()
		sweep := experiment.DefaultSweep()
		sweep.Base.DurationTicks = 1800
		return envCfg, sweep, nil
	case "quick":
		netCfg := roadnet.DefaultConfig()
		netCfg.Side = 7000
		netCfg.GridStep = 350
		netCfg.Centers = 3
		netCfg.CenterRadius = 1400
		envCfg := experiment.DefaultEnvConfig()
		envCfg.Net = netCfg
		envCfg.Nodes = 3000
		envCfg.CalibNodes = 800
		envCfg.CalibTicks = 180
		base := experiment.DefaultRunConfig()
		base.L = 100
		base.WarmupTicks = 90
		base.DurationTicks = 600
		sweep := experiment.DefaultSweep()
		sweep.Base = base
		sweep.Ls = []int{13, 49, 100, 250}
		sweep.CostLs = []int{13, 49, 100, 250, 520}
		sweep.Radii = []float64{700, 1400, 2100, 2800, 3500}
		return envCfg, sweep, nil
	default:
		return experiment.EnvConfig{}, experiment.Sweep{}, fmt.Errorf("unknown scale %q (want quick or paper)", scale)
	}
}

func spaceArea(cfg experiment.EnvConfig) float64 {
	side := cfg.Net.Side
	if side == 0 {
		side = roadnet.DefaultConfig().Side
	}
	return side * side
}
