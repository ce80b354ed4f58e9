package bench

import (
	"fmt"
	"math"
	"text/tabwriter"

	"slfe/internal/apps"
	"slfe/internal/cluster"
	"slfe/internal/compress"
	"slfe/internal/core"
	"slfe/internal/graph"
	"slfe/internal/metrics"
)

// valuewidthDomains lists, per application, the narrow domains compared
// against the f64 oracle.
var valuewidthDomains = map[string][]string{
	"sssp":     {"f32"},
	"bfs":      {"f32", "u32"},
	"cc":       {"f32", "u32"},
	"wp":       {"f32"},
	"pr":       {"f32"},
	"tr":       {"f32"},
	"spmv":     {"f32"},
	"numpaths": {"f32", "u32"},
}

// valuewidthApps is the experiment's application order (the registry keys
// of hotpathApps).
var valuewidthApps = []string{"sssp", "bfs", "cc", "wp", "pr", "tr", "spmv", "numpaths"}

// domWidth resolves a domain name's wire width via the authoritative core
// mapping (experiment domains are always built-in).
func domWidth(domain string) int {
	if w, ok := core.WidthOf(domain); ok {
		return w
	}
	return 8
}

// ValueWidth measures what the pluggable value domains buy: every
// registered application runs once per domain (f64 oracle, f32
// paper-faithful, u32 where the property is an integer label) on an
// in-process cluster with the adaptive codec at the domain's width,
// reporting elapsed time, total delta-sync traffic, the bytes streamed
// during compute, the reduction against f64, and — from a second
// single-node run with allocation measurement — the steady-state heap bytes per superstep. Results are verified against the
// f64 oracle: f32 within relative tolerance (float rounding is the
// expected, paper-sanctioned difference), u32 exactly (integer semantics),
// with the unreached sentinels (+Inf vs 2^32-1) identified. With a trace
// exporter configured the table is exported as a TSV series.
func ValueWidth(c Config) error {
	c.defaults()
	tw := tabwriter.NewWriter(c.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ValueWidth: value-domain comparison (adaptive codec at the domain's wire width)")
	fmt.Fprintln(tw, "app\tdomain\twidth\titers\telapsed\tsyncB\tstreamB\tvs-f64\theapB/step\tmatch")
	var rows [][]string
	for _, app := range valuewidthApps {
		ref, refSync, err := valuewidthRun(c, app, "f64")
		if err != nil {
			return fmt.Errorf("valuewidth %s/f64: %w", app, err)
		}
		if err := valuewidthEmit(c, tw, &rows, app, "f64", ref, refSync, refSync, true); err != nil {
			return err
		}
		for _, domain := range valuewidthDomains[app] {
			out, syncB, err := valuewidthRun(c, app, domain)
			if err != nil {
				return fmt.Errorf("valuewidth %s/%s: %w", app, domain, err)
			}
			match := valuesMatch(domain, out.Values, ref.Values)
			if !match {
				return fmt.Errorf("valuewidth %s/%s: results diverged from the f64 oracle", app, domain)
			}
			if err := valuewidthEmit(c, tw, &rows, app, domain, out, syncB, refSync, match); err != nil {
				return err
			}
		}
	}
	if err := c.Trace.Table("valuewidth",
		[]string{"app", "domain", "width", "iters", "elapsed_s", "sync_bytes", "streamed_bytes", "vs_f64", "heap_bytes_per_step", "match"}, rows); err != nil {
		return err
	}
	return tw.Flush()
}

// valuewidthIters bounds an application's iteration count so unbounded
// growth stays representable in every compared domain: path counts inside
// uint32 (the u32 exact-match verification would otherwise hit the
// documented wrap), SpMV magnitudes inside float32 (the product grows by
// ~avg-degree per iteration and overflows 3.4e38 within a dozen rounds).
func valuewidthIters(c Config, app string) int {
	switch app {
	case "numpaths":
		return min(c.PRIters, 4)
	case "spmv":
		return min(c.PRIters, 8)
	}
	return c.PRIters
}

// valuewidthRun executes one (app, domain) pairing on the configured
// cluster and returns the outcome plus its total delta-sync bytes.
func valuewidthRun(c Config, app, domain string) (*apps.Outcome, int64, error) {
	entry, ok := apps.LookupRunnable(app, domain)
	if !ok {
		return nil, 0, fmt.Errorf("no registry entry for (%s, %s)", app, domain)
	}
	name := "PK"
	if entry.NeedsSym {
		name = "PK:sym"
	}
	g, err := c.Graph(name)
	if err != nil {
		return nil, 0, err
	}
	iters := valuewidthIters(c, app)
	opt := cluster.Options{
		Nodes: c.Nodes, Threads: c.Threads, Stealing: true, RR: true,
		Codec: compress.Adaptive{W: domWidth(domain)},
	}
	out, err := entry.Build(graph.VertexID(0), iters).Execute(g, opt)
	if err != nil {
		return nil, 0, err
	}
	return out, syncTraffic(metrics.Merge(out.PerWorker)), nil
}

// valuewidthEmit prints and records one table row, including the
// single-node steady-state heap measurement.
func valuewidthEmit(c Config, tw *tabwriter.Writer, rows *[][]string, app, domain string, out *apps.Outcome, syncB, refSync int64, match bool) error {
	heapB, err := valuewidthHeap(c, app, domain)
	if err != nil {
		return fmt.Errorf("valuewidth %s/%s heap: %w", app, domain, err)
	}
	reduction := "-"
	if domain != "f64" && refSync > 0 {
		reduction = fmt.Sprintf("%+.0f%%", 100*(float64(syncB)/float64(refSync)-1))
	}
	streamed := int64(0)
	m := metrics.Merge(out.PerWorker)
	for _, s := range m.Iters {
		streamed += s.StreamedBytes
	}
	fmt.Fprintf(tw, "%s\t%s\t%dB\t%d\t%v\t%d\t%d\t%s\t%d\t%v\n",
		app, domain, domWidth(domain), out.Iterations, out.Elapsed, syncB, streamed, reduction, heapB, match)
	*rows = append(*rows, []string{
		app, domain, fmt.Sprintf("%d", domWidth(domain)),
		fmt.Sprintf("%d", out.Iterations),
		fmt.Sprintf("%.6f", out.Elapsed.Seconds()),
		fmt.Sprintf("%d", syncB),
		fmt.Sprintf("%d", streamed),
		reduction,
		fmt.Sprintf("%d", heapB),
		fmt.Sprintf("%v", match),
	})
	return nil
}

// valuewidthHeap reruns the pairing single-node with allocation measurement
// and returns the steady-state heap bytes per superstep (median of the
// last half — the hotpath instrument).
func valuewidthHeap(c Config, app, domain string) (int64, error) {
	entry, ok := apps.LookupRunnable(app, domain)
	if !ok {
		return 0, fmt.Errorf("no registry entry for (%s, %s)", app, domain)
	}
	name := "PK"
	if entry.NeedsSym {
		name = "PK:sym"
	}
	g, err := c.Graph(name)
	if err != nil {
		return 0, err
	}
	iters := valuewidthIters(c, app)
	opt := cluster.Options{
		Nodes: 1, Threads: c.Threads, Stealing: true, RR: true,
		Codec: compress.Adaptive{W: domWidth(domain)}, MeasureAllocs: true,
	}
	out, err := entry.Build(graph.VertexID(0), iters).Execute(g, opt)
	if err != nil {
		return 0, err
	}
	_, heapB := steadyState(out.Run.Iters)
	return heapB, nil
}

// syncTraffic totals a run's per-superstep delta-sync bytes (which include
// streamed bytes).
func syncTraffic(m *metrics.Run) int64 {
	var total int64
	for _, s := range m.Iters {
		total += s.SyncBytes
	}
	return total
}

// valuesMatch verifies a narrow domain's projected values against the f64
// oracle: exact for u32 (after identifying the unreached sentinels and
// skipping values outside the uint32 range, where the integer domain wraps
// by design), relative 1e-3 for f32 (float rounding is the expected
// difference).
func valuesMatch(domain string, got, ref []float64) bool {
	if len(got) != len(ref) {
		return false
	}
	const u32Unreached = float64(math.MaxUint32)
	for i := range got {
		g, r := got[i], ref[i]
		switch domain {
		case "u32":
			if math.IsInf(r, 1) {
				r = u32Unreached
			}
			if r >= u32Unreached && g == u32Unreached {
				continue // unreached sentinel, or an (intentional) wrap point
			}
			if g != r {
				return false
			}
		default: // f32
			if math.IsInf(g, 1) != math.IsInf(r, 1) {
				return false
			}
			if math.IsInf(r, 1) {
				continue
			}
			if diff := math.Abs(g - r); diff > 1e-3*math.Max(1, math.Max(math.Abs(g), math.Abs(r))) {
				return false
			}
		}
	}
	return true
}
