// Command perfbench is the repository's benchmark. It builds bccserve
// from the tree, starts real replicas on loopback, drives them from one
// closed-loop generator, checks every response, and prints every metric
// by name with its unit. The last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload hot-hits --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics of the untraced bccserve
// run. --trace 1 repeats that run for its /stats counters, then starts
// the same packages assembled in-process the way cmd/bccserve does,
// wrapped at their public seams (see child.go), and reports the
// per-layer metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd lists the metrics a --trace 0 run reports; perLayer those of
// a --trace 1 run. BENCHMARK.json carries the same lists (the self-check
// test holds them equal).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"server_cpu_us_per_op", "us"},
	{"server_rss_mb", "MB"},
}

// coldIDs are the cold-fleet experiments, one or more per compute
// package: lowerbound/dist (E3, E13, E15), core/f2 (E6, E7, E14),
// rankprot (E9), newman (E11) and recover/mat (E19, E20). Quick-mode
// costs run from about 3 ms (E14) to 220 ms (E19, E20), and the two
// ~40 ms lowerbound tables sit in the middle, so the median request
// falls inside one cluster of similar cells rather than on the edge
// between two. Seconds-class ids (E1, E5, E12) are left out so that no
// single cell dominates a run.
var coldIDs = []string{"E3", "E6", "E7", "E9", "E11", "E13", "E14", "E15", "E19", "E20"}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"serve.handler_self_us", "us"},
		{"serve.resp_bytes_per_op", "B"},
		{"sched.computed_per_op", "count"},
		{"sched.compute_ms_mean", "ms"},
		{"sched.admit_wait_ms", "ms"},
		{"sched.rejected", "count"},
		{"sched.computed_foreign", "count"},
		{"tier.get_us", "us"},
		{"tier.put_ms", "ms"},
		{"tier.memory.hits_per_op", "count"},
		{"tier.disk.hits_per_op", "count"},
		{"tier.objstore.hits_per_op", "count"},
		{"tier.memory.backfills_per_op", "count"},
		{"memlru.evictions_per_op", "count"},
		{"memlru.get_ns", "ns"},
		{"store.get_us", "us"},
		{"store.put_ms", "ms"},
		{"store.puts_per_op", "count"},
		{"store.index_bytes", "B"},
		{"objstore.client_get_us", "us"},
		{"objstore.client_put_us", "us"},
		{"objstore.hits_per_op", "count"},
		{"objstore.puts_per_op", "count"},
		{"objstore.errors", "count"},
		{"fleet.probe_us", "us"},
		{"fleet.proxy_ms", "ms"},
		{"fleet.proxied_per_op", "count"},
		{"fleet.shared_hits_per_op", "count"},
		{"fleet.waits", "count"},
		{"fleet.fallbacks", "count"},
		{"sweep.cells_per_s", "1/s"},
		{"result.decode_us", "us"},
		{"result.encode_us", "us"},
		{"result.encodes_per_op", "count"},
	}
	for _, id := range coldIDs {
		defs = append(defs, metricDef{"experiments." + id + ".run_ms", "ms"})
	}
	return append(defs,
		metricDef{"proc.allocs_per_op", "count"},
		metricDef{"proc.alloc_bytes_per_op", "B"},
		metricDef{"trace.overhead_pct", "%"},
		metricDef{"breaker.open", "count"},
	)
}()

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// root is the repository checkout; build holds every file a run
	// writes.
	root, build string
}

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	exitIfChild()
	opts, err := parseOptions(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(opts, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		// The correctness gate fails the run: the result line above
		// says why in numbers, the exit code says it to scripts.
		os.Exit(1)
	}
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "measured window length (cold-fleet: sizes its fixed cell list)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if _, ok := workloads[*workload]; !ok {
		return options{}, fmt.Errorf("unknown workload %q (want one of %v)", *workload, workloadNames())
	}
	if *seconds < 1 {
		return options{}, fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	root, err := os.Getwd()
	if err != nil {
		return options{}, err
	}
	return options{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		root: root, build: filepath.Join(root, ".bench_build"),
	}, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run performs one benchmark run and returns its result line. A failed
// correctness check is a result with Correct false; an error means the
// run could not be made at all.
func run(opts options, out io.Writer) (report, error) {
	for _, p := range []string{"go.mod", "cmd/bccserve", "internal/serve"} {
		if _, err := os.Stat(filepath.Join(opts.root, p)); err != nil {
			return report{}, fmt.Errorf("not a repository checkout (missing %s): run from the repository root", p)
		}
	}
	w := workloads[opts.workload](opts.seed, opts.seconds)
	if err := os.MkdirAll(opts.build, 0o755); err != nil {
		return report{}, err
	}
	bin, err := buildServer(opts.root, opts.build)
	if err != nil {
		return report{}, err
	}
	runDir, err := os.MkdirTemp(opts.build, "run-")
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(runDir)

	g := newGate()
	timed, err := runTimed(w, bin, runDir, g)
	if err != nil {
		return report{}, err
	}
	env := collectEnv(opts, w, timed.args)
	envLine, _ := json.Marshal(env)
	fmt.Fprintf(out, "env %s\n", envLine)

	metrics := map[string]metricValue{}
	defs := endToEnd
	var values map[string]float64
	if opts.trace {
		exe, err := os.Executable()
		if err != nil {
			return report{}, err
		}
		traced, err := runTraced(w, exe, runDir, g)
		if err != nil {
			return report{}, err
		}
		values = layerMetrics(timed, traced, replay(w, g, runDir))
		defs = perLayer
	} else {
		values = timed.endToEnd()
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return report{}, fmt.Errorf("internal: metric %s not computed", d.Name)
		}
		metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(out, "metric %-32s %14.4f %s\n", d.Name, v, d.Unit)
	}
	n, _ := timed.opsAndBytes()
	fmt.Fprintf(out, "samples %d requests in %d measured window(s) (%s, c=%d)\n",
		n, len(timed.rounds), w.name, clients())

	attempted, failed := g.counts()
	res := report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
	for _, msg := range g.errors() {
		fmt.Fprintf(out, "violation %s\n", msg)
	}
	if attempted == 0 {
		return res, errors.New("no operation was attempted")
	}
	return res, nil
}
