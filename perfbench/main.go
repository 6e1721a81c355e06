// Command perfbench is the repository's end-to-end benchmark. It drives the
// scheduler from outside, through the public functions of its packages,
// over one of four seeded workloads, checks every output it times, and
// prints one JSON result line:
//
//	perfbench --workload static-paper --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, measured by timing every call the
// benchmark makes into a layer, and a stage-share table precedes it. See
// README.md for the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed whose campaign digests are pinned in
// expectedDigests.
const defaultSeed = 1

// setupReps is how many times each workload sets up; setup_s is the
// median, which discards the first, cold set-up and any one slow one.
const setupReps = 5

// workloadFunc runs one benchmark workload and records its outcome in r.
type workloadFunc func(r *Run) error

var workloads = map[string]workloadFunc{
	"static-paper":     runStaticPaper,
	"dynamic-failures": runDynamicFailures,
	"replay-io":        runReplayIO,
	"service-open":     runServiceOpen,
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the scheduler sees; every workload
// reports all of them with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"points_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p95", "ms"},
	{"allocs_per_point", "count"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the single-layer metrics of the traced run. A layer that a
// workload bypasses reports 0.
var perLayer = []metricDef{
	{"alloc.calls", "count"}, {"alloc.busy_s", "s"}, {"alloc.share", "frac"},
	{"alloc.us_p50", "us"}, {"alloc.us_p99", "us"},
	{"alloc.growth_steps", "count"}, {"alloc.ns_per_step", "ns"},
	{"core.own_calls", "count"}, {"core.own_busy_s", "s"}, {"core.own_share", "frac"},
	{"mapping.calls", "count"}, {"mapping.busy_s", "s"},
	{"mapping.placements", "count"}, {"mapping.ns_per_placement", "ns"},
	{"simexec.calls", "count"}, {"simexec.busy_s", "s"},
	{"simexec.tasks", "count"}, {"simexec.ns_per_task", "ns"},
	{"strategy.calls", "count"}, {"strategy.busy_s", "s"},
	{"metrics.busy_s", "s"},
	{"daggen.busy_s", "s"}, {"daggen.tasks", "count"},
	{"online.calls", "count"}, {"online.busy_s", "s"},
	{"online.ms_p50", "ms"}, {"online.ms_p99", "ms"},
	{"online.rebalances", "count"}, {"online.us_per_rebalance", "us"},
	{"online.reschedules", "count"}, {"online.events_applied", "count"},
	{"online.placements", "count"},
	{"events.busy_s", "s"}, {"workload.busy_s", "s"},
	{"scenario.point_ms_p50", "ms"}, {"scenario.point_ms_p99", "ms"},
	{"scenario.jsonl_ns_per_record", "ns"}, {"scenario.aggregate_busy_s", "s"},
	{"cache.open_s", "s"}, {"cache.lookups", "count"}, {"cache.hit_ratio", "frac"},
	{"cache.lookup_us_p50", "us"}, {"cache.lookup_us_p99", "us"},
	{"cache.verify_failures", "count"},
	{"store.appends", "count"}, {"store.bytes", "bytes"},
	{"store.append_us_p50", "us"}, {"store.append_us_p99", "us"},
	{"store.sync_ms", "ms"},
	{"query.queries", "count"}, {"query.compile_us", "us"},
	{"query.bytes_read", "bytes"}, {"query.read_ratio", "frac"},
	{"query.useful_ratio", "frac"}, {"query.runs_read", "count"},
	{"query.out_of_order", "count"},
	{"service.direct_ms_p50", "ms"}, {"service.direct_ms_p99", "ms"},
	{"service.http_overhead_ms", "ms"}, {"service.queue_wait_ms_mean", "ms"},
	{"service.busy_s", "s"}, {"service.rejected", "count"},
	{"service.max_rps_p99_50ms", "1/s"},
	{"bench.gen_lag_ms_max", "ms"}, {"bench.trace_overhead", "frac"},
	{"bench.failed_frac", "frac"}, {"bench.latency_ms_p99", "ms"},
}

// Run is one benchmark invocation: its settings, and the outcome the
// workload records.
type Run struct {
	Workload string
	Seed     int64
	Seconds  time.Duration
	Trace    bool
	// Workers is the sweep worker and client connection count: the
	// machine's CPU count, capped by GOMAXPROCS.
	Workers int
	// WorkDir is a private scratch directory inside the checkout.
	WorkDir string
	Out     io.Writer

	Attempted, Failed int
	problems          []string
	E2E               map[string]float64
	Layer             map[string]float64
	// Samples records the sample count behind each reported percentile.
	Samples map[string]int
	Meta    map[string]any
}

// Fail records an output-check error: the run reports correct=false.
func (r *Run) Fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.problems) < 20 {
		r.problems = append(r.problems, msg)
	}
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
}

// Deadline reports whether the timed phase, started at start, may stop:
// the run length has passed and the sample count n leaves a p99 with
// minBeyond samples above it. A hard cap keeps a slow build bounded.
func (r *Run) Deadline(start time.Time, n int) bool {
	el := time.Since(start)
	return el >= 6*r.Seconds || el >= 120*time.Second ||
		(el >= r.Seconds && n >= SamplesFor(0.99))
}

// SetPct stores the p50, p95 and p99 of d under name_p50, name_p95 and
// name_p99 in m, and records their sample count.
func (r *Run) SetPct(m map[string]float64, name string, d *Dist) {
	m[name+"_p50"], _ = d.Pct(0.50)
	m[name+"_p95"], _ = d.Pct(0.95)
	m[name+"_p99"], _ = d.Pct(0.99)
	r.Samples[name] = d.N()
}

func main() { os.Exit(realMain()) }

func realMain() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: static-paper, dynamic-failures, replay-io or service-open")
	seed := fs.Int64("seed", defaultSeed, "workload seed; inputs are a pure function of it")
	seconds := fs.Int("seconds", 15, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	workers := min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	dir, err := filepath.Abs(filepath.Join(".bench_work", fmt.Sprintf("%s-%d", *name, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	r := &Run{
		Workload: *name, Seed: *seed, Seconds: time.Duration(*seconds) * time.Second,
		Trace: *trace == 1, Workers: workers, WorkDir: dir, Out: os.Stdout,
		E2E: map[string]float64{}, Layer: map[string]float64{},
		Samples: map[string]int{}, Meta: map[string]any{},
	}
	if err := wl(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r.E2E["peak_rss_mb"] = peakRSSMB()
	// The p99 of the end-to-end latency is a per-layer diagnostic: on a
	// shared machine a few stalls of the whole VM decide it (README.md).
	r.Layer["bench.latency_ms_p99"] = r.E2E["latency_ms_p99"]
	r.Layer["bench.failed_frac"] = float64(r.Failed) / float64(max(1, r.Attempted))
	return r.report()
}

// metric is one entry of the result line's metrics object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the metadata line and the result line, last.
func (r *Run) report() int {
	defs, vals := endToEnd, r.E2E
	if r.Trace {
		defs, vals = perLayer, r.Layer
	}
	ms := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !r.Trace {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s did not measure %s\n", r.Workload, d.name)
			return 1
		}
		ms[d.name] = metric{Value: v, Unit: d.unit}
	}
	r.Meta["problems"] = r.problems
	r.Meta["samples_per_percentile"] = r.Samples
	r.Meta["failed_frac"] = r.Layer["bench.failed_frac"]
	for k, v := range runMeta(r) {
		r.Meta[k] = v
	}
	if !r.Trace {
		// Per-layer values measured anyway (counters that cost nothing)
		// travel in the metadata line.
		r.Meta["layer"] = r.Layer
	}
	meta, err := json.Marshal(map[string]any{"meta": r.Meta})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(r.Out, "%s\n", meta)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0, r.Attempted, r.Failed, ms})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(r.Out, "%s\n", line)
	return 0
}

// runMeta describes the machine and the code a result was measured on.
func runMeta(r *Run) map[string]any {
	return map[string]any{
		"workload":   r.Workload,
		"seed":       r.Seed,
		"seconds":    r.Seconds.Seconds(),
		"trace":      r.Trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workers":    r.Workers,
		"go_version": runtime.Version(),
		"cpu_model":  cpuModel(),
		"commit":     gitCommit(),
		"source":     sourceDigest(),
	}
}

// setupMedian runs setup setupReps times and returns the median duration
// in seconds. Each call must redo the whole set-up.
func setupMedian(setup func(rep int) error) (float64, error) {
	var ts []float64
	for i := range setupReps {
		t0 := time.Now()
		if err := setup(i); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

// heapAllocs returns the cumulative count of heap objects allocated.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from a .git directory in the working directory, if
// there is one; benchmark checkouts without git report "unknown" and rely
// on the source digest.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the module's Go sources and go.mod files (sorted by
// path), identifying the code measured even without git metadata.
func sourceDigest() string {
	var files []string
	filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	return digestFiles(files)
}
