// Command bench is the repository's one benchmark: it builds ./cmd/lirad
// unmodified, runs it as a child process, and drives it from a single
// generator over two TCP connections through four named workloads,
// scoring what a user of a running lirad sees (update→result latency,
// applied goodput, server CPU and memory, position error, registration
// latency). A separate traced pass replays each workload's generated
// inputs in-process through every layer's public functions with a span
// around each call, giving the per-layer numbers.
//
// Driver contract (see BENCHMARK.json):
//
//	go run ./bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// runs one workload and prints one JSON object as the last line of
// standard output: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1. Without --workload it runs the whole suite and
// prints every metric as "workload metric value unit"; -repeat 2 is the
// noise self-check. README.md has the metric tables and the design.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// schemaVersion tags every output of the suite.
const schemaVersion = 1

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	repeat   int
	smoke    bool
	jsonOut  string
	traceOut string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: the whole suite)")
	flag.Uint64Var(&o.seed, "seed", 1, "generator seed; the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 20, "measured window per workload, seconds")
	flag.IntVar(&o.trace, "trace", -1, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
	flag.IntVar(&o.repeat, "repeat", 1, "run the end-to-end suite this many times and fail if a metric pair differs by more than its bound")
	flag.BoolVar(&o.smoke, "smoke", false, "3 s windows and relaxed sample floors, for CI")
	flag.StringVar(&o.jsonOut, "json", "", "also write the full report to this file")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced pass's spans to this file as Chrome trace-event JSON")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if errors.Is(err, errInvalid) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// fingerprint identifies the host and build a report came from.
type fingerprint struct {
	Schema          int     `json:"schema"`
	Commit          string  `json:"commit"`
	GoVersion       string  `json:"go_version"`
	NumCPU          int     `json:"num_cpu"`
	GenGOMAXPROCS   int     `json:"generator_gomaxprocs"`
	LiradGOMAXPROCS string  `json:"lirad_gomaxprocs"`
	Kernel          string  `json:"kernel"`
	Seed            uint64  `json:"seed"`
	WindowSeconds   int     `json:"window_seconds"`
	BuildSeconds    float64 `json:"build_s"`
}

func newFingerprint(o options, build time.Duration) fingerprint {
	fp := fingerprint{Schema: schemaVersion, Commit: "unknown", GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GenGOMAXPROCS: runtime.GOMAXPROCS(0),
		LiradGOMAXPROCS: os.Getenv("GOMAXPROCS"), Kernel: "unknown",
		Seed: o.seed, WindowSeconds: o.seconds, BuildSeconds: build.Seconds()}
	if fp.LiradGOMAXPROCS == "" { // the child inherits the environment, so it defaults the same way
		fp.LiradGOMAXPROCS = fmt.Sprint(runtime.NumCPU())
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	return fp
}

type report struct {
	fingerprint
	Runs []*result `json:"runs"`
}

func run(o options) error {
	if o.smoke {
		o.seconds = 3
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	specs := workloads
	if o.workload != "" {
		s, err := findWorkload(o.workload)
		if err != nil {
			return err
		}
		specs = []spec{*s}
	}
	bin, build, err := buildLirad()
	if err != nil {
		return err
	}
	rep := report{fingerprint: newFingerprint(o, build)}
	window := time.Duration(o.seconds) * time.Second
	minSamples := 1000
	if o.seconds < 15 {
		minSamples = 50 * o.seconds
	}

	driver := o.workload != "" && o.trace >= 0
	for pass := 0; pass < o.repeat; pass++ {
		for i := range specs {
			s := &specs[i]
			nSetups := setups
			if driver && o.trace == 1 {
				nSetups = 1 // setup_s is an end-to-end metric; the traced run does not report it
			}
			res, err := runLive(bin, s, o.seed, window, nSetups, minSamples)
			if errors.Is(err, errInvalid) {
				// A disturbed run (another process took the CPU) is discarded
				// and measured once more; a second INVALID is final.
				fmt.Fprintf(os.Stderr, "bench: %s: %v; measuring once more\n", s.Name, err)
				res, err = runLive(bin, s, o.seed, window, nSetups, minSamples)
			}
			if err != nil {
				return fmt.Errorf("%s: %w", s.Name, err)
			}
			switch {
			case driver && o.trace == 0, pass > 0: // repeats only re-measure the end-to-end metrics
				res.PerLayer = nil
			default:
				if err := tracedPass(s, o.seed, res, o.traceOut); err != nil {
					return fmt.Errorf("%s: traced pass: %w", s.Name, err)
				}
				if driver {
					res.EndToEnd = nil
				}
			}
			rep.Runs = append(rep.Runs, res)
			printResult(res)
		}
	}
	if o.repeat > 1 {
		if err := compareRepeats(rep.Runs, len(specs)); err != nil {
			return err
		}
	}
	if o.jsonOut != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.jsonOut, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if driver {
		return printDriverLine(rep.Runs[0])
	}
	fp, err := json.Marshal(rep.fingerprint)
	if err != nil {
		return err
	}
	fmt.Printf("fingerprint %s\n", fp)
	return nil
}

// printResult prints every metric of one run as "workload metric value unit".
func printResult(res *result) {
	fmt.Printf("%s lirad_argv %s\n", res.Workload, strings.Join(res.Argv, " "))
	for _, group := range []struct {
		defs []metricDef
		vals map[string]float64
	}{{endToEnd, res.EndToEnd}, {perLayer, res.PerLayer}} {
		if group.vals == nil {
			continue
		}
		for _, d := range group.defs {
			fmt.Printf("%s %s %.6g %s\n", res.Workload, d.Name, group.vals[d.Name], d.Unit)
		}
	}
	for _, k := range sortedKeys(res.Info) {
		fmt.Printf("%s info.%s %.6g\n", res.Workload, k, res.Info[k])
	}
}

// printDriverLine prints the one JSON object the benchmark driver reads.
func printDriverLine(res *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, res.EndToEnd
	if vals == nil {
		defs, vals = perLayer, res.PerLayer
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no finite value", d.Name)
		}
		out.Metrics[d.Name] = value{v, d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// compareRepeats is the noise self-check: runs come in passes of n
// workloads, and every end-to-end metric of a later pass must be within
// its bound of the first pass's value.
func compareRepeats(runs []*result, n int) error {
	var bad []string
	for i := n; i < len(runs); i++ {
		first, again := runs[i%n], runs[i]
		for _, d := range endToEnd {
			a, b := first.EndToEnd[d.Name], again.EndToEnd[d.Name]
			if diff := math.Abs(a-b) / math.Max(math.Abs(a), 1e-12); diff > d.Bound {
				bad = append(bad, fmt.Sprintf("%s %s: %.6g vs %.6g differ by %.1f%%, bound %.1f%%",
					first.Workload, d.Name, a, b, 100*diff, 100*d.Bound))
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("noise self-check failed:\n  %s", strings.Join(bad, "\n  "))
	}
	fmt.Println("noise self-check passed: every end-to-end metric pair is within its bound")
	return nil
}

func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
