package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"slfe/internal/apps"
	"slfe/internal/cluster"
	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/service"
)

// serveApp is one program registered with the resident service.
type serveApp struct {
	key, domain string
	root        graph.VertexID
	iters       int
}

func (a serveApp) id() string { return service.ProgramID(a.key, a.domain) }

// serveState is serve-mixed after set-up.
type serveState struct {
	svc   *service.Service
	g0    *graph.Graph
	progs []serveApp
}

// setupServe builds the PK-sized graph, starts the resident service and
// registers the three programs (the timed set-up of serve-mixed).
func setupServe(cfg config) (*serveState, error) {
	d, _ := gen.ByName("PK")
	n, m := d.ProxySize(cfg.size.pkScale)
	g := gen.RMAT(n, m, gen.DefaultRMAT, 64, cfg.seed)
	root := drawRoots(g, cfg.size.rootPool, 1, rand.New(rand.NewSource(cfg.seed)))[0]
	st := &serveState{g0: g, progs: []serveApp{
		{"sssp", "dist32", root, 0},
		{"cc", "u32", 0, 0},
		{"pr", "f64", 0, cfg.size.servePRIters},
	}}
	svc, err := service.New(g, service.Config{Nodes: ranks, Threads: 1, Sessions: 1, RR: true})
	if err != nil {
		return nil, err
	}
	for _, a := range st.progs {
		if _, err := svc.Register(a.key, a.domain, a.root, a.iters); err != nil {
			svc.Close()
			return nil, err
		}
	}
	st.svc = svc
	return st, nil
}

// read is one handler request of the closed loop.
type read struct {
	endpoint string // "result", "topk" or "route"
	url      string
	app      serveApp
	vertex   uint32 // result: the vertex; route: the destination
	order    string // topk
	k        int
}

// runServe drives serve-mixed: one closed-loop client alternates a seeded
// batch of edge insertions through Service.Apply with a fixed number of
// reads through service.Handler, verifying every read against the snapshot
// that served it and, at the end, every program against a cold run.
func runServe(cfg config) (*report, error) {
	rep := newReport()
	var st *serveState
	var setups []float64
	for r := 0; r < cfg.size.setupReps; r++ {
		if st != nil {
			st.svc.Close()
			st = nil
		}
		runtime.GC()
		ck := newClock()
		var err error
		if st, err = setupServe(cfg); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, ck.elapsed().Seconds())
	}
	svc := st.svc
	defer svc.Close()
	rep.shape = map[string]int64{"vertices": int64(st.g0.NumVertices()), "edges": st.g0.NumEdges()}

	// Read targets: seeded vertices the SSSP root reaches (routes exist and
	// distances are finite; insertions only ever keep them reached).
	sssp := st.progs[0]
	dist := svc.Snapshot().Programs[sssp.id()].Outcome.Values
	rng := rand.New(rand.NewSource(cfg.seed + 1))
	var targets []uint32
	for tries := 0; len(targets) < 64 && tries < 1<<20; tries++ {
		if v := rng.Intn(len(dist)); !math.IsInf(dist[v], 0) && graph.VertexID(v) != sssp.root {
			targets = append(targets, uint32(v))
		}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("the SSSP root reaches no vertex")
	}
	// Each round of three reads: a point lookup (rotating the programs), a
	// cacheable ranking (alternating two), and a route to the same target.
	topks := []read{
		{endpoint: "topk", app: st.progs[2], order: "desc", k: 10, url: "/topk?app=pr&domain=f64&k=10&order=desc"},
		{endpoint: "topk", app: sssp, order: "asc", k: 10, url: "/topk?app=sssp&domain=dist32&k=10&order=asc"},
	}
	var reads []read
	for k, t := range targets {
		a := st.progs[k%len(st.progs)]
		reads = append(reads,
			read{endpoint: "result", app: a, vertex: t,
				url: fmt.Sprintf("/result?app=%s&domain=%s&vertex=%d", a.key, a.domain, t)},
			topks[k%len(topks)],
			read{endpoint: "route", app: sssp, vertex: t,
				url: fmt.Sprintf("/route?app=sssp&domain=dist32&from=%d&to=%d", sssp.root, t)})
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	h := service.Handler(svc)
	batchRng := rand.New(rand.NewSource(cfg.seed + 2))
	n := st.g0.NumVertices()
	want := map[string][]topKRow{} // expected top-k per version and request
	var plain, traced, reexec, other []float64
	var layers []map[string]float64
	var warm, reexecs int
	lat := map[string][]float64{}
	var all []float64
	next := 0
	runClock := newClock()
	deadline := time.Now().Add(cfg.seconds)
	for a := 0; a < cfg.size.minApplies || time.Now().Before(deadline); a++ {
		b := &service.Batch{}
		for i := 0; i < cfg.size.batchEdges; i++ {
			b.Adds = append(b.Adds, graph.Edge{
				Src:    graph.VertexID(batchRng.Intn(n)),
				Dst:    graph.VertexID(batchRng.Intn(n)),
				Weight: float32(1 + batchRng.Intn(64)),
			})
		}
		on := cfg.trace && a%2 == 1 // traced runs alternate traced and untraced applies
		var atr *tracer
		if on {
			atr = tr
		}
		rep.attempted++
		id := atr.begin("service.apply", a, 0)
		ck := newClock()
		snap, err := svc.Apply(b)
		wall := time.Since(ck.t0)
		d := ck.elapsed()
		atr.end(id)
		if on {
			traced = append(traced, d.Seconds())
		} else {
			plain = append(plain, d.Seconds())
		}
		if err != nil {
			rep.fail("apply %d: %v", a, err)
			continue
		}
		var re time.Duration
		l := map[string]float64{}
		for _, p := range st.progs {
			o := snap.Programs[p.id()]
			re += o.Outcome.Elapsed + o.Outcome.Preprocess
			reexecs++
			if o.Warm {
				warm++
			}
			engineLayers(l, o.Outcome.PerWorker, o.Outcome.Iterations)
			l["comm.messages"] += float64(o.Outcome.Comm.MessagesSent)
			l["comm.bytes"] += float64(o.Outcome.Comm.BytesSent)
		}
		l["core.imbalance"] /= float64(len(st.progs))
		ratios(l, snap.Graph.NumEdges())
		layers = append(layers, l)
		reexec = append(reexec, re.Seconds())
		other = append(other, (wall - re).Seconds())

		for k := 0; k < cfg.size.readsPerApply; k++ {
			r := reads[next%len(reads)]
			next++
			req := httptest.NewRequest("GET", r.url, nil)
			rec := httptest.NewRecorder()
			rep.attempted++
			id := tr.begin("service.read."+r.endpoint, a, 0)
			t0 := time.Now()
			h.ServeHTTP(rec, req)
			d := time.Since(t0).Seconds()
			tr.end(id)
			lat[r.endpoint] = append(lat[r.endpoint], d)
			all = append(all, d)
			if err := checkRead(r, rec.Code, rec.Body.Bytes(), snap, want); err != nil {
				rep.fail("apply %d, read %s: %v", a, r.url, err)
			}
		}
		if a == cfg.size.minApplies-1 {
			rep.e2e["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		}
	}

	if _, ok := rep.e2e["peak_rss_mb"]; !ok { // an apply failed before minApplies
		rep.e2e["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	}

	// After the last apply every program must equal a cold run on the
	// final snapshot's graph with the guidance roots pinned at registration.
	final := svc.Snapshot()
	for _, p := range st.progs {
		rep.attempted++
		if err := coldCheck(p, st.g0, final); err != nil {
			rep.fail("cold check %s: %v", p.id(), err)
		}
	}

	if !cfg.trace {
		rep.e2e["setup_s"] = metric{median(setups), "s"}
		rep.e2e["job_s"] = metric{median(plain), "s"}
		fmt.Fprintf(os.Stderr, "perfbench: job_s over %d applies: quartiles %.4f %.4f %.4f; %d reads; setup_s samples %.4f; host stole %.1f%% of CPU time\n",
			len(plain), quantile(plain, 0.25), median(plain), quantile(plain, 0.75), len(all), setups, 100*runClock.stolenShare())
		return rep, nil
	}
	aggregate(rep, layers, cfg.size.minApplies)
	cs := svc.Cache().Stats()
	if cs.Hits+cs.Misses > 0 {
		rep.layer["service.cache_hit_ratio"] = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
	}
	rep.layer["service.reexec_s"] = median(reexec)
	rep.layer["service.apply_other_s"] = median(other)
	rep.layer["service.warm_ratio"] = float64(warm) / float64(reexecs)
	rep.layer["service.read_result_s"] = median(lat["result"])
	rep.layer["service.read_topk_s"] = median(lat["topk"])
	rep.layer["service.read_route_s"] = median(lat["route"])
	rep.layer["service.read_p50_s"] = median(all)
	rep.layer["service.read_p99_s"] = quantile(all, 0.99)
	if base := median(plain); base > 0 {
		rep.layer["trace.overhead_ratio"] = median(traced) / base
	}
	if err := tr.write(filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", cfg.name, cfg.seed))); err != nil {
		return nil, err
	}
	return rep, nil
}

// topKRow mirrors one /topk entry.
type topKRow struct {
	Vertex uint32  `json:"vertex"`
	Value  float64 `json:"value"`
}

// checkRead verifies one handler response against the snapshot that
// served it (the client is alone, so no Apply ran in between).
func checkRead(r read, code int, body []byte, snap *service.Snapshot, want map[string][]topKRow) error {
	if code != 200 {
		return fmt.Errorf("status %d: %s", code, body)
	}
	var resp struct {
		Version  uint64    `json:"version"`
		Value    float64   `json:"value"`
		Top      []topKRow `json:"top"`
		Hops     int       `json:"hops"`
		Path     []uint32  `json:"path"`
		Distance float64   `json:"distance"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if resp.Version != snap.Version {
		return fmt.Errorf("version %d, served snapshot is %d", resp.Version, snap.Version)
	}
	out := snap.Programs[r.app.id()].Outcome
	vals := out.Values
	switch r.endpoint {
	case "result":
		if resp.Value != vals[r.vertex] {
			return fmt.Errorf("value %v, snapshot holds %v", resp.Value, vals[r.vertex])
		}
	case "topk":
		key := fmt.Sprintf("%d:%s", snap.Version, r.url)
		exp, ok := want[key]
		if !ok {
			exp = refTopK(vals, r.k, r.order == "asc")
			want[key] = exp
		}
		if !slices.Equal(resp.Top, exp) {
			return fmt.Errorf("top %v, snapshot ranks %v", resp.Top, exp)
		}
	case "route":
		p := resp.Path
		if len(p) == 0 || p[0] != uint32(r.app.root) || p[len(p)-1] != r.vertex || resp.Hops != len(p)-1 {
			return fmt.Errorf("route %v (%d hops) does not lead from %d to %d", p, resp.Hops, r.app.root, r.vertex)
		}
		for j := 1; j < len(p); j++ {
			if out.Parents[p[j]] != p[j-1] {
				return fmt.Errorf("route hop %d->%d is not a tree edge", p[j-1], p[j])
			}
		}
		if d := vals[r.vertex] - vals[r.app.root]; resp.Distance != d {
			return fmt.Errorf("distance %v, snapshot gives %v", resp.Distance, d)
		}
	}
	return nil
}

// refTopK ranks finite values, ties on the lower vertex id: the order the
// /topk endpoint promises.
func refTopK(vals []float64, k int, asc bool) []topKRow {
	var rows []topKRow
	for v, x := range vals {
		if !math.IsInf(x, 0) && !math.IsNaN(x) {
			rows = append(rows, topKRow{uint32(v), x})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Value != b.Value {
			return (a.Value < b.Value) == asc
		}
		return a.Vertex < b.Vertex
	})
	return rows[:min(k, len(rows))]
}

// coldCheck runs p from scratch on the final snapshot's graph and requires
// the service's published values (and, for dist32, parents) bit for bit.
func coldCheck(p serveApp, g0 *graph.Graph, snap *service.Snapshot) error {
	entry, ok := apps.LookupRunnable(p.key, p.domain)
	if !ok {
		return fmt.Errorf("unknown program")
	}
	regG, runG := g0, snap.Graph
	if entry.NeedsSym {
		regG, runG = apps.Symmetrize(g0), snap.Sym
	}
	inc, ok := entry.Build(p.root, p.iters).(apps.Incremental)
	if !ok {
		return fmt.Errorf("not incremental")
	}
	cold, err := entry.Build(p.root, p.iters).Execute(runG, cluster.Options{
		Nodes: ranks, Threads: 1, RR: true, GuidanceRoots: inc.GuidanceRoots(regG),
	})
	if err != nil {
		return err
	}
	got := snap.Programs[p.id()].Outcome
	if err := checkExact(got.Values, cold.Values); err != nil {
		return err
	}
	if !slices.Equal(got.Parents, cold.Parents) {
		return fmt.Errorf("parent tree differs from the cold run's")
	}
	return nil
}
