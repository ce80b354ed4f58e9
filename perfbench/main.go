// Command perfbench is SLFE's repository benchmark. One run executes one
// workload for a fixed number of seconds through SLFE's public entry points
// (cluster.ExecuteOver over in-process or loopback-TCP transports,
// store.OpenBudget, and the resident service.Service), checks every result
// against an oracle, and prints one JSON object as the last line of
// standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (job_s, setup_s,
// peak_rss_mb); with --trace 1 the run wraps the same public boundaries in
// the probes of layers.go and reports the per-layer metrics instead.
// Inputs are generated from --seed; the same seed gives the same inputs.
//
// Run it from the repository root through the wrapper, which builds the
// binary first:
//
//	bash perfbench/run.sh --workload pr-lj --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sizes fixes the input scale of every workload; tests shrink it.
type sizes struct {
	ljScale       int // down-scale divisor of the LJ proxy (pr-lj, sssp-lat, pr-disk)
	pkScale       int // down-scale divisor of the PK proxy (serve-mixed)
	prIters       int // PageRank iterations of the batch workloads
	servePRIters  int // PageRank iterations of the resident program
	ssspRoots     int // distinct SSSP roots a run cycles through
	rootPool      int // roots are drawn from this many highest out-degree vertices
	batchEdges    int // edge insertions per service mutation batch
	readsPerApply int // handler reads between two mutation batches
	warmup        int // untimed jobs before measuring
	setupReps     int // set-ups per run; setup_s is their median
	minApplies    int // serve-mixed: applies always measured, whatever --seconds says; peak RSS is read after the last of them
}

var fullSizes = sizes{
	ljScale: 20, pkScale: 50,
	prIters: 30, servePRIters: 10,
	ssspRoots: 8, rootPool: 256,
	batchEdges: 16, readsPerApply: 30,
	warmup: 2, setupReps: 3, minApplies: 64,
}

// config is one run's settings.
type config struct {
	name     string
	seed     int64
	seconds  time.Duration
	trace    bool
	size     sizes
	workDir  string // scratch directory for the SLFC file
	traceDir string // where a traced run writes its spans
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload run hands back to main.
type report struct {
	attempted, failed int
	// errs holds a description of every failed operation (printed to
	// standard error, never on the result line).
	errs []string
	// e2e holds the end-to-end metrics (untraced runs), layer the per-layer
	// ones (traced runs). peak_rss_mb is read after a fixed amount of work
	// (the first measured cycle of jobs, or minApplies applies), so a faster
	// system that fits more operations into --seconds is not charged for it.
	e2e   map[string]metric
	layer map[string]float64
	// shape records |V|, |E| and SLFC bytes of the workload's graph.
	shape map[string]int64
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]float64{}, shape: map[string]int64{}}
}

// fail records one failed operation.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// workload is one named benchmark workload.
type workload struct {
	name string
	run  func(cfg config) (*report, error)
}

var workloads = []workload{
	{"pr-lj", func(cfg config) (*report, error) { return runBatch(cfg, newPRHeap) }},
	{"sssp-lat", func(cfg config) (*report, error) { return runBatch(cfg, newSSSPLat) }},
	{"pr-disk", func(cfg config) (*report, error) { return runBatch(cfg, newPRDisk) }},
	{"serve-mixed", runServe},
}

// layerMetrics lists every per-layer metric with its unit. Every traced run
// prints all of them; a layer a workload does not reach reads 0 there.
var layerMetrics = []struct{ name, unit string }{
	{"core.supersteps", "count"},
	{"core.computations", "count"},
	{"core.updates", "count"},
	{"core.suppressed", "count"},
	{"core.catchups", "count"},
	{"core.compute_s", "s"},
	{"core.commit_s", "s"},
	{"core.frontier_s", "s"},
	{"core.sync_s", "s"},
	{"core.exposed_comm_s", "s"},
	{"core.edge_work_ratio", "ratio"},
	{"core.overlap_ratio", "ratio"},
	{"core.imbalance", "ratio"},
	{"comm.messages", "count"},
	{"comm.bytes", "B"},
	{"comm.msgs_per_superstep", "count"},
	{"comm.recv_wait_s", "s"},
	{"comm.send_s", "s"},
	{"rrg.generate_s", "s"},
	{"rrg.computation_ratio", "ratio"},
	{"partition.s", "s"},
	{"view.adj_calls", "count"},
	{"view.edges_read", "count"},
	{"view.adj_s", "s"},
	{"store.open_s", "s"},
	{"store.bytes_per_edge", "B"},
	{"service.reexec_s", "s"},
	{"service.apply_other_s", "s"},
	{"service.warm_ratio", "ratio"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.read_result_s", "s"},
	{"service.read_topk_s", "s"},
	{"service.read_route_s", "s"},
	{"service.read_p50_s", "s"},
	{"service.read_p99_s", "s"},
	{"trace.overhead_ratio", "ratio"},
}

func main() {
	name := flag.String("workload", "", "workload: pr-lj, sssp-lat, pr-disk or serve-mixed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (pr-lj|sssp-lat|pr-disk|serve-mixed), --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	work := filepath.Join(".bench_build", "work")
	dir, err := "", os.MkdirAll(work, 0o755)
	if err == nil {
		dir, err = os.MkdirTemp(work, w.name+"-")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	cfg := config{
		name: w.name, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, size: fullSizes, workDir: dir,
		traceDir: filepath.Join(".bench_build", "traces"),
	}
	rep, err := w.run(cfg)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	for _, e := range rep.errs {
		fmt.Fprintf(os.Stderr, "perfbench: %s: failed: %s\n", w.name, e)
	}
	fp := fingerprint()
	fp["workload"] = w.name
	fp["seed"] = *seed
	fp["graph"] = rep.shape
	fb, _ := json.Marshal(fp)
	fmt.Printf("fingerprint %s\n", fb)
	line, err := json.Marshal(resultLine(rep, cfg.trace))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// resultLine assembles the final JSON object.
func resultLine(rep *report, traced bool) map[string]any {
	ms := rep.e2e
	if traced {
		ms = map[string]metric{}
		for _, m := range layerMetrics {
			ms[m.name] = metric{Value: rep.layer[m.name], Unit: m.unit}
		}
	}
	return map[string]any{
		"correct":   rep.failed == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   ms,
	}
}

// peakRSSMB is the process's high-water resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	kb := procField("/proc/self/status", "VmHWM:")
	v, _ := strconv.ParseFloat(strings.TrimSuffix(kb, " kB"), 64)
	return v / 1024
}

// procField returns the trimmed value after key in a "key: value" file.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k)+":" == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// fingerprint describes the machine a result was measured on.
func fingerprint() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        procField("/proc/cpuinfo", "model name:"),
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
