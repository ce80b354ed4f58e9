package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"slfe/internal/apps"
	"slfe/internal/cluster"
	"slfe/internal/comm"
	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/service"
)

// tinySizes runs every workload in well under a second.
var tinySizes = sizes{
	ljScale: 2000, pkScale: 2000,
	prIters: 10, servePRIters: 5,
	ssspRoots: 3, rootPool: 16,
	batchEdges: 8, readsPerApply: 9,
	warmup: 1, setupReps: 2, minApplies: 3,
}

func tinyConfig(t *testing.T, name string, trace bool) config {
	return config{
		name: name, seed: 7, seconds: 20 * time.Millisecond, trace: trace,
		size: tinySizes, workDir: t.TempDir(), traceDir: t.TempDir(),
	}
}

// nonZero lists, per workload, the per-layer metrics that must be measured
// (non-zero) there; every other one is still printed.
var nonZero = map[string][]string{
	"pr-lj": {"core.supersteps", "core.computations", "core.updates", "core.compute_s", "core.sync_s",
		"core.edge_work_ratio", "comm.messages", "comm.bytes", "comm.msgs_per_superstep", "comm.recv_wait_s",
		"comm.send_s", "rrg.generate_s", "rrg.computation_ratio", "partition.s", "view.adj_calls",
		"view.edges_read", "view.adj_s", "trace.overhead_ratio"},
	"sssp-lat": {"core.supersteps", "core.computations", "core.frontier_s", "core.exposed_comm_s",
		"comm.messages", "comm.recv_wait_s", "rrg.generate_s", "rrg.computation_ratio", "view.edges_read",
		"trace.overhead_ratio"},
	"pr-disk": {"core.computations", "comm.bytes", "view.edges_read", "view.adj_s", "store.open_s",
		"store.bytes_per_edge", "trace.overhead_ratio"},
	"serve-mixed": {"core.supersteps", "core.computations", "comm.messages", "service.reexec_s",
		"service.apply_other_s", "service.warm_ratio", "service.cache_hit_ratio", "service.read_result_s",
		"service.read_topk_s", "service.read_route_s", "service.read_p50_s", "service.read_p99_s",
		"trace.overhead_ratio"},
}

// TestTinyWorkloads runs every workload at a tiny scale, untraced and
// traced: every oracle must pass and every named metric must be printed.
func TestTinyWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := w.run(tinyConfig(t, w.name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("%s trace=%v: %d of %d operations failed: %v", w.name, trace, rep.failed, rep.attempted, rep.errs)
			}
			b, err := json.Marshal(resultLine(rep, trace))
			if err != nil {
				t.Fatal(err)
			}
			var line struct {
				Correct   bool              `json:"correct"`
				Attempted int               `json:"attempted"`
				Failed    int               `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal(b, &line); err != nil || !line.Correct {
				t.Fatalf("%s: result line %s (%v)", w.name, b, err)
			}
			if !trace {
				for _, name := range []string{"job_s", "setup_s", "peak_rss_mb"} {
					if line.Metrics[name].Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v", w.name, name, line.Metrics[name].Value)
					}
				}
				continue
			}
			if len(line.Metrics) != len(layerMetrics) {
				t.Errorf("%s: %d per-layer metrics, want %d", w.name, len(line.Metrics), len(layerMetrics))
			}
			for _, name := range nonZero[w.name] {
				if line.Metrics[name].Value <= 0 {
					t.Errorf("%s: per-layer %s = %v, want > 0", w.name, name, line.Metrics[name].Value)
				}
			}
		}
	}
}

// TestExactOracleRejectsOneULP: SSSP, CC, pr-disk and cold-check values
// must match bit for bit.
func TestExactOracleRejectsOneULP(t *testing.T) {
	want := []float64{0, 3, 17, math.Inf(1)}
	got := append([]float64(nil), want...)
	if err := checkExact(got, want); err != nil {
		t.Fatal(err)
	}
	for v := range got {
		got := append([]float64(nil), want...)
		got[v] = math.Nextafter(got[v], -1)
		if checkExact(got, want) == nil {
			t.Errorf("1 ulp off at vertex %d accepted", v)
		}
	}
}

// TestPageRankOracleRejectsPerturbation: the 1e-4 tolerance must catch a
// 1e-3 relative error on any vertex.
func TestPageRankOracleRejectsPerturbation(t *testing.T) {
	g := gen.RMAT(300, 3000, gen.DefaultRMAT, 64, 3)
	res, err := cluster.Execute(g, apps.PageRank(20), cluster.Options{Nodes: ranks, Threads: 1, RR: true})
	if err != nil {
		t.Fatal(err)
	}
	ref := apps.RefPageRank(g, 20)
	if err := checkPageRank(g, res.Result.Values, ref); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{0, 17, 299} {
		bad := append([]float64(nil), res.Result.Values...)
		bad[v] *= 1 + 1e-3
		if checkPageRank(g, bad, ref) == nil {
			t.Errorf("1e-3 relative error at vertex %d accepted", v)
		}
	}
}

// TestServeOraclesRejectPerturbation: a read that disagrees with its
// snapshot, and a published program that disagrees with a cold run, fail.
func TestServeOraclesRejectPerturbation(t *testing.T) {
	cfg := tinyConfig(t, "serve-mixed", false)
	st, err := setupServe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.svc.Close()
	snap := st.svc.Snapshot()
	h := service.Handler(st.svc)
	sssp, pr := st.progs[0], st.progs[2]
	var to uint32
	for v, d := range snap.Programs[sssp.id()].Outcome.Values {
		if !math.IsInf(d, 0) && graph.VertexID(v) != sssp.root {
			to = uint32(v)
			break
		}
	}
	reads := []read{
		{endpoint: "result", app: pr, vertex: 3, url: "/result?app=pr&domain=f64&vertex=3"},
		{endpoint: "topk", app: pr, order: "desc", k: 5, url: "/topk?app=pr&domain=f64&k=5&order=desc"},
		{endpoint: "route", app: sssp, vertex: to, url: routeURL(sssp.root, to)},
	}
	for _, r := range reads {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", r.url, nil))
		if err := checkRead(r, rec.Code, rec.Body.Bytes(), snap, map[string][]topKRow{}); err != nil {
			t.Fatalf("%s: %v", r.url, err)
		}
		// The same response checked against a snapshot one ulp off.
		bad := perturbed(snap, r.app, r.vertex)
		if r.endpoint == "topk" {
			top := refTopK(snap.Programs[pr.id()].Outcome.Values, 1, false)
			bad = perturbed(snap, r.app, top[0].Vertex)
		}
		if checkRead(r, rec.Code, rec.Body.Bytes(), bad, map[string][]topKRow{}) == nil {
			t.Errorf("%s: response accepted against a perturbed snapshot", r.url)
		}
	}
	for _, p := range st.progs {
		if err := coldCheck(p, st.g0, snap); err != nil {
			t.Fatalf("cold check %s: %v", p.id(), err)
		}
		v := uint32(0)
		if p.key == "sssp" {
			v = to
		}
		if coldCheck(p, st.g0, perturbed(snap, p, v)) == nil {
			t.Errorf("cold check %s accepted a perturbed result", p.id())
		}
	}
}

func routeURL(from graph.VertexID, to uint32) string {
	return fmt.Sprintf("/route?app=sssp&domain=dist32&from=%d&to=%d", from, to)
}

// perturbed copies snap with program a's value at vertex v one ulp lower.
func perturbed(snap *service.Snapshot, a serveApp, v uint32) *service.Snapshot {
	out := *snap
	out.Programs = map[string]*service.Program{}
	for id, p := range snap.Programs {
		out.Programs[id] = p
	}
	p := *snap.Programs[a.id()]
	o := *p.Outcome
	o.Values = append([]float64(nil), o.Values...)
	o.Values[v] = math.Nextafter(o.Values[v], -1)
	p.Outcome = &o
	out.Programs[a.id()] = &p
	return &out
}

// TestProbesTransparent: a job run through the benchmark's transport and
// view probes gives the same values and exact counters as the same job
// without them, and the probes count what the transports count.
func TestProbesTransparent(t *testing.T) {
	g := gen.RMAT(2000, 24000, gen.DefaultRMAT, 64, 5)
	roots := drawRoots(g, 16, 1, rand.New(rand.NewSource(1)))
	for _, p := range []struct {
		name string
		run  func(e *jobEnv, ts []comm.Transport) (*cluster.RunResult[float64], error)
	}{
		{"pr", func(e *jobEnv, ts []comm.Transport) (*cluster.RunResult[float64], error) {
			return e.execute(g, apps.PageRank(15), ts)
		}},
		{"sssp", func(e *jobEnv, ts []comm.Transport) (*cluster.RunResult[float64], error) {
			return e.execute(g, apps.SSSP(roots[0]), ts)
		}},
	} {
		var bare *cluster.RunResult[float64]
		var bareCtr counters
		for _, traced := range []bool{false, true} {
			ts, err := comm.NewLocalGroup(ranks)
			if err != nil {
				t.Fatal(err)
			}
			e := &jobEnv{rr: true}
			if traced {
				e.tr = newTracer()
			}
			res, err := p.run(e, ts)
			if err != nil {
				t.Fatal(err)
			}
			ctr, _ := jobLayers(res, e, g.NumEdges())
			if ctr.messages != res.Comm.MessagesSent || ctr.bytes != res.Comm.BytesSent {
				t.Errorf("%s traced=%v: probes counted %d msgs/%d B, transports %d/%d",
					p.name, traced, ctr.messages, ctr.bytes, res.Comm.MessagesSent, res.Comm.BytesSent)
			}
			if !traced {
				bare, bareCtr = res, ctr
				continue
			}
			if ctr.edgesRead == 0 {
				t.Errorf("%s: traced job read no edges", p.name)
			}
			ctr.edgesRead = 0
			if ctr != bareCtr {
				t.Errorf("%s: traced counters %+v, untraced %+v", p.name, ctr, bareCtr)
			}
			if err := checkExact(res.Result.Values, bare.Result.Values); err != nil {
				t.Errorf("%s: traced values differ: %v", p.name, err)
			}
		}
		// And without any probe at all.
		var plain *cluster.RunResult[float64]
		var err error
		if p.name == "pr" {
			plain, err = cluster.Execute(g, apps.PageRank(15), cluster.Options{Nodes: ranks, Threads: 1, RR: true})
		} else {
			plain, err = cluster.Execute(g, apps.SSSP(roots[0]), cluster.Options{Nodes: ranks, Threads: 1, RR: true})
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := checkExact(plain.Result.Values, bare.Result.Values); err != nil {
			t.Errorf("%s: probed values differ from a bare run: %v", p.name, err)
		}
		if plain.Comm != bare.Comm {
			t.Errorf("%s: probed traffic %+v, bare %+v", p.name, bare.Comm, plain.Comm)
		}
	}
}

// TestSelfTime: a span's self time excludes the union of its children.
func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "recv", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "recv", Start: 30, End: 50},
		{ID: 4, Parent: 1, Name: "send", Start: 90, End: 120},
	}}
	self := tr.selfTimes()
	if got, want := self["job"], 50e-9; math.Abs(got-want) > 1e-15 {
		t.Errorf("job self time %v, want %v", got, want)
	}
	if got, want := self["recv"], 50e-9; math.Abs(got-want) > 1e-15 {
		t.Errorf("recv self time %v, want %v", got, want)
	}
}

// TestClockSubtractsOnlyStolenTime: the job clock never reads more than the
// wall time, and reads it exactly when the host steals nothing.
func TestClockSubtractsOnlyStolenTime(t *testing.T) {
	c := newClock()
	time.Sleep(30 * time.Millisecond)
	got := c.elapsed()
	wall := time.Since(c.t0)
	if got <= 0 || got > wall {
		t.Fatalf("clock read %v over %v of wall time", got, wall)
	}
	if c.mark.stolen() == 0 && wall-got > time.Millisecond {
		t.Fatalf("nothing stolen, yet the clock read %v of %v", got, wall)
	}
}
