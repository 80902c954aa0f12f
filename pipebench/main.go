// Command pipebench is the repository benchmark: it generates a workload's
// input from a seed, runs it through the public domo API (or, with
// --trace 1, drives each internal layer directly under spans), checks the
// outputs against the ground truth the simulator put on the wire, and
// prints one JSON result line.
//
//	pipebench --workload stream-durable --seed 1 --seconds 40 --trace 0
//	pipebench --workload stream-paced --seed 1 --seconds 40 --steady 10
//
// README.md in this directory describes the workloads, the metrics and
// the layer each per-layer metric belongs to.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Workload sizing. Generation is never timed.
const (
	streamNodes    = 60
	streamReplicas = 32
	streamDuration = 30 * time.Minute
	streamRecords  = 3000

	// pacedRate is stream-paced's offered load in records per second,
	// about a third of the fsync-off saturating rate on a 2-CPU host. At
	// half that rate the queue amplified host drift: a run whose solves
	// were 7% slower than the median had a 42% higher p90 emit latency.
	pacedRate = 25000
	pacerTick = 500 * time.Microsecond

	// streamBoundWindows is how many delivered windows of each replica the
	// stream workloads bound, every unknown of each.
	streamBoundWindows = 4

	// minSetups is the least number of restarts a run times; setup_s is
	// their median.
	minSetups = 25

	// minWindows is the least per-window latency sample the traced run
	// collects; a p99 over it has at least minTail samples beyond it.
	minWindows = 1100
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run prints.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"estimate_us_per_delay", "us"},
	{"bound_ms_per_bound", "ms"},
	{"estimate_mae_ms", "ms"},
	{"bound_width_ms", "ms"},
	{"records_per_s", "1/s"},
	{"emit_p50_ms", "ms"},
	{"emit_p90_ms", "ms"},
}

// perLayer are the metrics every traced run prints. A layer a workload
// bypasses reports zero.
var perLayer = []metricDef{
	{"wire.decode_us_per_record", "us"},
	{"wire.bytes_per_record", "B"},
	{"wire.self_ms", "ms"},
	{"trace.sanitize_us_per_record", "us"},
	{"trace.quarantined", "count"},
	{"trace.epoch_bumps", "count"},
	{"trace.admit_ratio", "ratio"},
	{"trace.self_ms", "ms"},
	{"wal.append_us_p50", "us"},
	{"wal.append_us_p99", "us"},
	{"wal.sync_us_p50", "us"},
	{"wal.sync_us_p99", "us"},
	{"wal.syncs_per_record", "ratio"},
	{"wal.open_ms", "ms"},
	{"wal.replay_us_per_record", "us"},
	{"wal.self_ms", "ms"},
	{"stream.emit_p50_ms", "ms"},
	{"stream.emit_p99_ms", "ms"},
	{"stream.queue_max", "count"},
	{"stream.lag_ms", "ms"},
	{"stream.windows", "count"},
	{"stream.windows_failed", "count"},
	{"stream.self_ms", "ms"},
	{"domo.stream_overhead_us_per_window", "us"},
	{"core.dataset_ms", "ms"},
	{"core.dataset_us_per_window", "us"},
	{"core.constraints", "count"},
	{"core.estimate_ms", "ms"},
	{"core.window_estimate_p50_ms", "ms"},
	{"core.window_estimate_p99_ms", "ms"},
	{"core.admm_iterations", "count"},
	{"core.pruned_rows", "count"},
	{"core.warm_started_windows", "count"},
	{"core.retried_windows", "count"},
	{"core.degraded_windows", "count"},
	{"core.estimate_alloc_bytes_per_delay", "B"},
	{"core.estimate_allocs_per_window", "count"},
	{"core.bounds_ms", "ms"},
	{"core.bounds_solved", "count"},
	{"core.bounds_propagation", "count"},
	{"core.bounds_simplex", "count"},
	{"core.bounds_alloc_bytes_per_bound", "B"},
	{"core.self_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_p99_us", "us"},
	{"gen.late_p99_ms", "ms"},
	{"harness.self_ms", "ms"},
	{"harness.untraced_ms", "ms"},
	{"harness.traced_ms", "ms"},
	{"harness.trace_overhead_ms", "ms"},
	{"harness.spans", "count"},
}

// workloads lists the benchmark's workloads in reporting order.
var workloads = []string{"stream-durable", "stream-paced"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one run's metrics, operation counts and failed
// correctness checks.
type report struct {
	defs      []metricDef
	values    map[string]float64
	attempted int
	failed    int
	problems  []string
	// digest identifies the run's outputs; it is printed to standard
	// error so runs of one seed can be compared.
	digest uint64
}

func newReport(defs []metricDef) *report {
	return &report{defs: defs, values: map[string]float64{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// check records a failed correctness check unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// result validates the metric set and renders the JSON line.
func (r *report) result() (result, error) {
	out := result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range r.defs {
		v, ok := r.values[d.name]
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(r.values) != len(r.defs) {
		var extra []string
		for name := range r.values {
			if _, ok := out.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return out, fmt.Errorf("undeclared metrics %s", strings.Join(extra, ", "))
	}
	if out.Attempted < 1 {
		return out, fmt.Errorf("no operation attempted")
	}
	return out, nil
}

type options struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	spans    string
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	var traceFlag, steady int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 40, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 drives each layer under spans and prints per-layer metrics")
	flag.StringVar(&o.spans, "spans", "", "span output file (default .bench_build/spans/<workload>-<seed>.jsonl.gz)")
	flag.IntVar(&steady, "steady", 0, "run the workload this many times, seeds seed..seed+N-1, and report steadiness")
	flag.Parse()
	o.traced = traceFlag == 1
	if !contains(workloads, o.workload) || o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "pipebench: want --workload (%s), --seconds >= 1, --trace 0|1\n", strings.Join(workloads, ", "))
		return 2
	}
	if steady > 0 {
		return steadyReport(o, steady)
	}
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl.gz", o.workload, o.seed))
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	rep, err := runWorkload(context.Background(), o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pipebench: %s: %v\n", o.workload, err)
		return 1
	}
	res, err := rep.result()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pipebench: %s: %v\n", o.workload, err)
		return 1
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "pipebench: %s: check failed: %s\n", o.workload, p)
	}
	fmt.Fprintf(os.Stderr, "digest %016x\n", rep.digest)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pipebench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func runWorkload(ctx context.Context, o options) (*report, error) {
	spec := streamSpecs[o.workload]
	if o.traced {
		return traceStream(ctx, spec, o)
	}
	return runStream(ctx, spec, o)
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
