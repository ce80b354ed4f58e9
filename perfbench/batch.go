package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"slfe/internal/apps"
	"slfe/internal/cluster"
	"slfe/internal/comm"
	"slfe/internal/core"
	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/metrics"
	"slfe/internal/partition"
	"slfe/internal/rrg"
	"slfe/internal/store"
	"slfe/internal/ws"
)

// Every job runs 2 ranks x 1 thread from this one process.
const (
	ranks       = 2
	linkLatency = 100 * time.Microsecond // sssp-lat's emulated one-way link delay
	meshTimeout = 10 * time.Second
)

// batchCase is one run-to-completion workload after set-up.
type batchCase interface {
	// prepare computes the oracles (untimed, outside setup_s).
	prepare() error
	// inputs is the number of distinct job inputs the run cycles through.
	inputs() int
	// job runs input i once and returns the result and the time from the
	// call into the public entry point until the result returned (wall
	// time less stolen time; see steal.go).
	job(i int, e *jobEnv) (*cluster.RunResult[float64], time.Duration, error)
	// check compares a result of input i against its oracle.
	check(i int, res *cluster.RunResult[float64]) error
	shape() map[string]int64
	close()
}

// jobEnv carries one job's instruments. With a nil tracer it only counts
// messages; traced, it also wraps the graph view, generates guidance in the
// open (so its cost is a span) and times the store open.
type jobEnv struct {
	tr     *tracer
	job    int
	root   int // span ID of the job
	rr     bool
	probes []*commProbe
	view   *viewProbe
	genS   float64
	partS  float64
	openS  float64
}

// startClock opens the job span and starts the job's clock.
func (e *jobEnv) startClock() clock {
	e.root = e.tr.begin("job", e.job, 0)
	return newClock()
}

// stopClock closes the job span and returns the job's time (wall time
// less stolen time; see steal.go).
func (e *jobEnv) stopClock(c clock) time.Duration {
	d := c.elapsed()
	e.tr.end(e.root)
	return d
}

// execute runs p on g over ts through cluster.ExecuteOver, with the
// benchmark's probes around the transports (and, traced, the view).
func (e *jobEnv) execute(g graph.View, p *core.Program[float64], ts []comm.Transport) (*cluster.RunResult[float64], error) {
	opt := cluster.Options{Nodes: ranks, Threads: 1, RR: e.rr}
	if e.tr != nil {
		e.view = newViewProbe(g)
		g = e.view
		if e.rr {
			// The same generation cluster.ExecuteOver would run itself,
			// made here so its cost is a span of its own.
			roots := p.Roots
			if len(roots) == 0 {
				roots = rrg.DefaultRoots(g)
			}
			id := e.tr.begin("rrg.generate", e.job, e.root)
			sched := ws.New(opt.Threads, opt.Stealing)
			opt.Guidance = rrg.Generate(g, roots, sched)
			sched.Close()
			e.genS = e.tr.end(id).Seconds()
		}
		// The same chunking cluster.ExecuteOver starts with, timed alone.
		id := e.tr.begin("partition", e.job, e.root)
		_, err := partition.NewChunked(g, ranks)
		e.partS = e.tr.end(id).Seconds()
		if err != nil {
			for _, t := range ts {
				t.Close()
			}
			return nil, err
		}
	}
	wrapped := make([]comm.Transport, len(ts))
	id := e.tr.begin("cluster.execute", e.job, e.root)
	for i, t := range ts {
		pr := &commProbe{Transport: t, tr: e.tr, job: e.job, parent: id}
		e.probes = append(e.probes, pr)
		wrapped[i] = pr
	}
	res, err := cluster.ExecuteOver(g, p, opt, wrapped)
	e.tr.end(id)
	return res, err
}

// lj is the graph of the three batch workloads: an R-MAT graph at the LJ
// proxy's size.
func lj(cfg config) *graph.Graph {
	d, _ := gen.ByName("LJ")
	n, m := d.ProxySize(cfg.size.ljScale)
	return gen.RMAT(n, m, gen.DefaultRMAT, 64, cfg.seed)
}

// checkPageRank compares engine contributions against reference ranks
// within the "finish early" tolerance of the engine's own RR test.
func checkPageRank(g graph.View, contribs, ref []float64) error {
	got := apps.PageRankScores(g, contribs)
	if len(got) != len(ref) {
		return fmt.Errorf("%d scores, want %d", len(got), len(ref))
	}
	for v := range ref {
		if d := math.Abs(got[v] - ref[v]); !(d <= 1e-4*(1+math.Abs(ref[v]))) {
			return fmt.Errorf("vertex %d: rank %v, reference %v", v, got[v], ref[v])
		}
	}
	return nil
}

// checkExact requires bit-identical values.
func checkExact(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, want %d", len(got), len(want))
	}
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			return fmt.Errorf("vertex %d: %v, want %v", v, got[v], want[v])
		}
	}
	return nil
}

// prHeap is pr-lj: PageRank over the heap graph and in-process transports.
type prHeap struct {
	g     *graph.Graph
	iters int
	ref   []float64
}

func newPRHeap(cfg config) (batchCase, error) {
	return &prHeap{g: lj(cfg), iters: cfg.size.prIters}, nil
}

func (c *prHeap) prepare() error {
	c.ref = apps.RefPageRank(c.g, c.iters)
	return nil
}

func (c *prHeap) inputs() int { return 1 }

func (c *prHeap) job(_ int, e *jobEnv) (*cluster.RunResult[float64], time.Duration, error) {
	ts, err := comm.NewLocalGroup(ranks)
	if err != nil {
		return nil, 0, err
	}
	t0 := e.startClock()
	res, err := e.execute(c.g, apps.PageRank(c.iters), ts)
	return res, e.stopClock(t0), err
}

func (c *prHeap) check(_ int, res *cluster.RunResult[float64]) error {
	return checkPageRank(c.g, res.Result.Values, c.ref)
}

func (c *prHeap) shape() map[string]int64 {
	return map[string]int64{"vertices": int64(c.g.NumVertices()), "edges": c.g.NumEdges()}
}

func (c *prHeap) close() {}

// ssspLat is sssp-lat: SSSP from seeded high-degree roots over a fresh
// loopback TCP mesh with an emulated link latency.
type ssspLat struct {
	g     *graph.Graph
	roots []graph.VertexID
	refs  [][]float64
}

func newSSSPLat(cfg config) (batchCase, error) {
	g := lj(cfg)
	rng := rand.New(rand.NewSource(cfg.seed))
	return &ssspLat{g: g, roots: drawRoots(g, cfg.size.rootPool, cfg.size.ssspRoots, rng)}, nil
}

// drawRoots draws k distinct vertices from the pool highest out-degree ones
// (ties broken by id).
func drawRoots(g graph.View, pool, k int, rng *rand.Rand) []graph.VertexID {
	ids := make([]graph.VertexID, g.NumVertices())
	for i := range ids {
		ids[i] = graph.VertexID(i)
	}
	sort.SliceStable(ids, func(a, b int) bool { return g.OutDegree(ids[a]) > g.OutDegree(ids[b]) })
	ids = ids[:min(pool, len(ids))]
	rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
	return ids[:min(k, len(ids))]
}

func (c *ssspLat) prepare() error {
	for _, r := range c.roots {
		c.refs = append(c.refs, apps.RefSSSP(c.g, r))
	}
	return nil
}

func (c *ssspLat) inputs() int { return len(c.roots) }

func (c *ssspLat) job(i int, e *jobEnv) (*cluster.RunResult[float64], time.Duration, error) {
	// The mesh is formed before the clock starts.
	tcp, err := comm.LoopbackTCP(ranks, meshTimeout)
	if err != nil {
		return nil, 0, err
	}
	ts := make([]comm.Transport, len(tcp))
	for r, t := range tcp {
		ts[r] = comm.WithLatency(t, linkLatency)
	}
	t0 := e.startClock()
	res, err := e.execute(c.g, apps.SSSP(c.roots[i]), ts)
	return res, e.stopClock(t0), err
}

func (c *ssspLat) check(i int, res *cluster.RunResult[float64]) error {
	return checkExact(res.Result.Values, c.refs[i])
}

func (c *ssspLat) shape() map[string]int64 {
	return map[string]int64{"vertices": int64(c.g.NumVertices()), "edges": c.g.NumEdges()}
}

func (c *ssspLat) close() {}

// prDisk is pr-disk: pr-lj's job over the graph read from an SLFC file
// opened out of core (budget a quarter of the file) for every job.
type prDisk struct {
	g     *graph.Graph // dropped once the oracle is computed
	iters int
	path  string
	bytes int64
	n     int
	m     int64
	heap  []float64 // the heap run's values: the job must reproduce them bit for bit
}

func newPRDisk(cfg config) (batchCase, error) {
	g := lj(cfg)
	path := filepath.Join(cfg.workDir, "lj.slfc")
	if err := store.Write(path, g); err != nil {
		return nil, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	return &prDisk{g: g, iters: cfg.size.prIters, path: path, bytes: st.Size(), n: g.NumVertices(), m: g.NumEdges()}, nil
}

func (c *prDisk) prepare() error {
	ts, err := comm.NewLocalGroup(ranks)
	if err != nil {
		return err
	}
	res, err := cluster.ExecuteOver(c.g, apps.PageRank(c.iters), cluster.Options{Nodes: ranks, Threads: 1, RR: true}, ts)
	if err != nil {
		return fmt.Errorf("heap oracle run: %w", err)
	}
	if err := checkPageRank(c.g, res.Result.Values, apps.RefPageRank(c.g, c.iters)); err != nil {
		return fmt.Errorf("heap oracle run: %w", err)
	}
	c.heap = res.Result.Values
	c.g = nil
	return nil
}

func (c *prDisk) inputs() int { return 1 }

func (c *prDisk) job(_ int, e *jobEnv) (*cluster.RunResult[float64], time.Duration, error) {
	ts, err := comm.NewLocalGroup(ranks)
	if err != nil {
		return nil, 0, err
	}
	t0 := e.startClock()
	id := e.tr.begin("store.open", e.job, e.root)
	sg, err := store.OpenBudget(c.path, c.bytes/4)
	e.openS = e.tr.end(id).Seconds()
	if err != nil {
		for _, t := range ts {
			t.Close()
		}
		return nil, e.stopClock(t0), err
	}
	res, err := e.execute(sg, apps.PageRank(c.iters), ts)
	cerr := sg.Close()
	d := e.stopClock(t0)
	if err == nil && !sg.OutOfCore() {
		err = fmt.Errorf("store opened in memory, want out of core")
	}
	if err == nil {
		err = cerr
	}
	return res, d, err
}

func (c *prDisk) check(_ int, res *cluster.RunResult[float64]) error {
	return checkExact(res.Result.Values, c.heap)
}

func (c *prDisk) shape() map[string]int64 {
	return map[string]int64{"vertices": int64(c.n), "edges": c.m, "slfc_bytes": c.bytes}
}

func (c *prDisk) close() { os.Remove(c.path) }

// counters are the exact per-job counts that must repeat for one input.
type counters struct {
	supersteps, computations, updates, suppressed, catchups int64
	messages, bytes                                         int64
	edgesRead                                               int64 // traced jobs only
}

// jobStats is one finished job; layer is nil when it failed.
type jobStats struct {
	wall  time.Duration
	layer map[string]float64
}

// runBatch drives a batch workload: set-up (median of setupReps), oracles,
// warm-up, then whole cycles over the inputs until --seconds have passed.
// Traced runs alternate an untraced and a traced job on every input.
func runBatch(cfg config, setup func(config) (batchCase, error)) (*report, error) {
	rep := newReport()
	var c batchCase
	var setups []float64
	for r := 0; r < cfg.size.setupReps; r++ {
		if c != nil {
			c.close()
			c = nil
		}
		runtime.GC()
		ck := newClock()
		var err error
		if c, err = setup(cfg); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, ck.elapsed().Seconds())
	}
	defer c.close()
	rep.shape = c.shape()
	if err := c.prepare(); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	runtime.GC()

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	jobID := 0
	// Exact counters of the first RR job per input: core and comm counts
	// must repeat on every later job of that input, traced or not (the
	// probes are transparent); edges read repeat across traced jobs.
	firstCtr := map[int]counters{}
	firstEdges := map[int]int64{}
	run := func(i int, traced, rr bool) jobStats {
		jobID++
		e := &jobEnv{job: jobID, rr: rr}
		if traced {
			e.tr = tr
		}
		rep.attempted++
		res, wall, err := c.job(i, e)
		st := jobStats{wall: wall}
		if err == nil {
			err = c.check(i, res)
		}
		if err != nil {
			rep.fail("job %d (input %d): %v", jobID, i, err)
			return st
		}
		var ctr counters
		ctr, st.layer = jobLayers(res, e, rep.shape["edges"])
		if !rr {
			return st
		}
		edges := ctr.edgesRead
		ctr.edgesRead = 0
		if want, ok := firstCtr[i]; !ok {
			firstCtr[i] = ctr
		} else if ctr != want {
			rep.fail("job %d (input %d): exact counters %+v differ from the first job's %+v", jobID, i, ctr, want)
		}
		if traced {
			if want, ok := firstEdges[i]; !ok {
				firstEdges[i] = edges
			} else if edges != want {
				rep.fail("job %d (input %d): %d edges read, the first traced job read %d", jobID, i, edges, want)
			}
		}
		return st
	}

	for w := 0; w < cfg.size.warmup; w++ {
		run(w%c.inputs(), false, true)
	}
	var plain, traced []jobStats
	var rrOff jobStats
	if cfg.trace {
		rrOff = run(0, false, false)
	}
	runClock := newClock()
	deadline := time.Now().Add(cfg.seconds)
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		for i := 0; i < c.inputs(); i++ {
			plain = append(plain, run(i, false, true))
			if cfg.trace {
				traced = append(traced, run(i, true, true))
			}
		}
		if cycle == 0 {
			rep.e2e["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		}
	}

	if !cfg.trace {
		rep.e2e["setup_s"] = metric{median(setups), "s"}
		js := walls(plain)
		rep.e2e["job_s"] = metric{median(js), "s"}
		fmt.Fprintf(os.Stderr, "perfbench: job_s over %d jobs: quartiles %.4f %.4f %.4f; setup_s samples %.4f; host stole %.1f%% of CPU time\n",
			len(js), quantile(js, 0.25), median(js), quantile(js, 0.75), setups, 100*runClock.stolenShare())
		return rep, nil
	}
	// Per-layer: exact counts are the mean per job over the first cycle
	// (one job per input: the same work every run of a seed), timings the
	// median over every traced job.
	var layers []map[string]float64
	for _, st := range traced {
		if st.layer != nil {
			layers = append(layers, st.layer)
		}
	}
	aggregate(rep, layers, c.inputs())
	if off := rrOff.layer["core.computations"]; off > 0 && len(layers) > 0 {
		rep.layer["rrg.computation_ratio"] = layers[0]["core.computations"] / off
	}
	if base := median(walls(plain)); base > 0 {
		rep.layer["trace.overhead_ratio"] = median(walls(traced)) / base
	}
	if b := rep.shape["slfc_bytes"]; b > 0 {
		rep.layer["store.bytes_per_edge"] = float64(b) / float64(rep.shape["edges"])
	}
	if err := tr.write(filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", cfg.name, cfg.seed))); err != nil {
		return nil, err
	}
	return rep, nil
}

// walls lists the jobs' wall times. A failed job's time counts too; only a
// job that failed before its clock started has none.
func walls(sts []jobStats) []float64 {
	var xs []float64
	for _, st := range sts {
		if st.wall > 0 {
			xs = append(xs, st.wall.Seconds())
		}
	}
	return xs
}

// jobLayers extracts a finished job's exact counters and per-layer values.
func jobLayers(res *cluster.RunResult[float64], e *jobEnv, edges int64) (counters, map[string]float64) {
	l := map[string]float64{}
	ctr := engineLayers(l, res.PerWorker, res.Result.Iterations)
	var sendNs, recvNs int64
	for _, p := range e.probes {
		ctr.messages += p.msgs.Load()
		ctr.bytes += p.bytes.Load()
		sendNs += p.sendNs.Load()
		recvNs += p.recvNs.Load()
	}
	l["comm.messages"] = float64(ctr.messages)
	l["comm.bytes"] = float64(ctr.bytes)
	l["comm.recv_wait_s"] = float64(recvNs) / 1e9
	l["comm.send_s"] = float64(sendNs) / 1e9
	l["rrg.generate_s"] = e.genS
	l["partition.s"] = e.partS
	l["store.open_s"] = e.openS
	ratios(l, edges)
	if e.view != nil {
		calls, edgesRead, adjS := e.view.totals()
		ctr.edgesRead = edgesRead
		l["view.adj_calls"] = float64(calls)
		l["view.edges_read"] = float64(edgesRead)
		l["view.adj_s"] = adjS
	}
	return ctr, l
}

// engineLayers adds one engine run's core.* numbers to l (summing, so a
// service apply can add its three programs) and returns its exact counts.
// core.imbalance is summed too; callers averaging several runs divide it.
func engineLayers(l map[string]float64, perWorker []*metrics.Run, iterations int) counters {
	m := metrics.Merge(perWorker)
	ctr := counters{
		supersteps:   int64(iterations),
		computations: m.Computations(),
		updates:      m.Updates(),
		suppressed:   m.Suppressed(),
	}
	var exposed time.Duration
	var streamed, synced int64
	for _, it := range m.Iters {
		ctr.catchups += it.CatchUps
		exposed += it.ExposedComm
		streamed += it.StreamedBytes
		synced += it.SyncBytes
	}
	l["core.supersteps"] += float64(ctr.supersteps)
	l["core.computations"] += float64(ctr.computations)
	l["core.updates"] += float64(ctr.updates)
	l["core.suppressed"] += float64(ctr.suppressed)
	l["core.catchups"] += float64(ctr.catchups)
	l["core.compute_s"] += m.ComputeTime.Seconds()
	l["core.commit_s"] += m.CommitTime.Seconds()
	l["core.frontier_s"] += m.FrontierTime.Seconds()
	l["core.sync_s"] += m.SyncTime.Seconds()
	l["core.exposed_comm_s"] += exposed.Seconds()
	l["core.imbalance"] += metrics.Imbalance(perWorker)
	l["core.streamed_bytes"] += float64(streamed)
	l["core.sync_bytes"] += float64(synced)
	return ctr
}

// ratios derives the ratio metrics from the summed counts in l.
func ratios(l map[string]float64, edges int64) {
	if l["core.sync_bytes"] > 0 {
		l["core.overlap_ratio"] = l["core.streamed_bytes"] / l["core.sync_bytes"]
	}
	if steps := l["core.supersteps"]; steps > 0 {
		l["comm.msgs_per_superstep"] = l["comm.messages"] / steps
		l["core.edge_work_ratio"] = l["core.computations"] / (steps * float64(edges))
	}
}

// countKeys are exact per-job counts (and ratios of them): a run reports
// their mean over a fixed prefix of jobs, so one seed always gives the same
// figures. timeKeys are timings and their ratios: a run reports the median
// over every measured job.
var (
	countKeys = []string{"core.supersteps", "core.computations", "core.updates", "core.suppressed",
		"core.catchups", "comm.messages", "comm.bytes", "comm.msgs_per_superstep", "view.adj_calls",
		"view.edges_read", "core.edge_work_ratio"}
	timeKeys = []string{"core.compute_s", "core.commit_s", "core.frontier_s", "core.sync_s",
		"core.exposed_comm_s", "core.overlap_ratio", "core.imbalance", "comm.recv_wait_s", "comm.send_s",
		"rrg.generate_s", "partition.s", "view.adj_s", "store.open_s"}
)

// aggregate fills rep.layer from per-job layer maps: countKeys as the mean
// over the first k jobs, timeKeys as the median over all.
func aggregate(rep *report, jobs []map[string]float64, k int) {
	k = min(k, len(jobs))
	for _, name := range countKeys {
		var sum float64
		for _, l := range jobs[:k] {
			sum += l[name]
		}
		if k > 0 {
			rep.layer[name] = sum / float64(k)
		}
	}
	for _, name := range timeKeys {
		var xs []float64
		for _, l := range jobs {
			xs = append(xs, l[name])
		}
		rep.layer[name] = median(xs)
	}
}
