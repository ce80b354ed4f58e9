package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"slfe/internal/ckpt"
	"slfe/internal/comm"
	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/partition"
	"slfe/internal/rrg"
)

// runWithCkpt executes p on nodes workers with the given checkpoint
// manager; rank failRank's transport dies after failAfter sends (failRank
// < 0 disables injection). A non-nil gd turns redundancy reduction on.
// Returns worker results and errors.
func runWithCkpt(t *testing.T, g *graph.Graph, p *Program[float64], nodes int, m *ckpt.Manager, failRank, failAfter int, gd *rrg.Guidance) ([]*Result[float64], []error) {
	t.Helper()
	part, err := partition.NewChunked(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	transports, err := comm.NewLocalGroup(nodes)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*Result[float64], nodes)
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for rank := 0; rank < nodes; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr := transports[rank]
			if rank == failRank {
				tr = &flakyTransport{Transport: tr, remaining: failAfter}
			}
			eng, err := New[float64](Config{Graph: g, Comm: comm.NewComm(tr), Part: part, Ckpt: m, RR: gd != nil, Guidance: gd})
			if err != nil {
				errs[rank] = err
				comm.Abort(transports[rank])
				return
			}
			results[rank], errs[rank] = eng.Run(p)
			if errs[rank] != nil {
				comm.Abort(transports[rank])
			}
		}(rank)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("run deadlocked")
	}
	return results, errs
}

func TestCheckpointResumeArith(t *testing.T) {
	g := gen.RMAT(1024, 8192, gen.DefaultRMAT, 1, 41)
	p := testArith()
	want := runCluster(t, g, p, 3, nil)

	dir := t.TempDir()
	m := &ckpt.Manager{Dir: dir, Every: 3}
	// Crash partway: rank 1 dies after enough sends for a few supersteps.
	_, errs := runWithCkpt(t, g, p, 3, m, 1, 40, nil)
	if errs[1] == nil {
		t.Skip("injection did not trigger; adjust failAfter")
	}
	latest, err := m.LatestComplete(3)
	if err != nil {
		t.Fatal(err)
	}
	if latest < 0 {
		t.Fatal("no complete checkpoint before the crash")
	}

	// Resume with healthy transports.
	m.Resume = true
	results, errs := runWithCkpt(t, g, p, 3, m, -1, 0, nil)
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("resume rank %d: %v", rank, err)
		}
	}
	got := results[0]
	for v := range want.Values {
		if got.Values[v] != want.Values[v] {
			t.Fatalf("vertex %d: resumed %v, want %v", v, got.Values[v], want.Values[v])
		}
	}
	// The resumed run must have skipped the checkpointed prefix.
	if got.Iterations >= want.Iterations {
		t.Fatalf("resumed run executed %d iterations, full run %d", got.Iterations, want.Iterations)
	}
}

func TestCheckpointResumeMinMax(t *testing.T) {
	g := gen.RMAT(2048, 16384, gen.DefaultRMAT, 32, 43)
	p := testProgram()
	want := runCluster(t, g, p, 3, nil)

	dir := t.TempDir()
	m := &ckpt.Manager{Dir: dir, Every: 1}
	_, errs := runWithCkpt(t, g, p, 3, m, 1, 12, nil)
	if errs[1] == nil {
		t.Skip("injection did not trigger; adjust failAfter")
	}
	latest, err := m.LatestComplete(3)
	if err != nil {
		t.Fatal(err)
	}
	if latest < 0 {
		t.Fatal("no complete checkpoint before the crash")
	}

	m.Resume = true
	results, errs := runWithCkpt(t, g, p, 3, m, -1, 0, nil)
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("resume rank %d: %v", rank, err)
		}
	}
	got := results[0]
	for v := range want.Values {
		if got.Values[v] != want.Values[v] {
			t.Fatalf("vertex %d: resumed %v, want %v", v, got.Values[v], want.Values[v])
		}
	}
}

// TestCheckpointResumeMinMaxRR: a start-late run resumed from a checkpoint
// must repeat the uninterrupted run's supersteps exactly — the same
// values and, superstep by superstep, the same relaxations and catch-ups.
// The shard does not carry the set of sources ever active; restore
// rebuilds it from the values, and a wrong rebuild changes what catch-up
// scans relax.
func TestCheckpointResumeMinMaxRR(t *testing.T) {
	g := gen.RMAT(2048, 16384, gen.DefaultRMAT, 32, 43)
	p := testProgram()
	gd := rrg.Generate(g, p.Roots, nil)
	want := runCluster(t, g, p, 3, func(_ int, cfg *Config) { cfg.RR, cfg.Guidance = true, gd })

	m := &ckpt.Manager{Dir: t.TempDir(), Every: 1}
	_, errs := runWithCkpt(t, g, p, 3, m, 1, 12, gd)
	if errs[1] == nil {
		t.Skip("injection did not trigger; adjust failAfter")
	}
	if latest, err := m.LatestComplete(3); err != nil || latest < 0 {
		t.Fatalf("no complete checkpoint before the crash (latest %d, %v)", latest, err)
	}
	m.Resume = true
	results, errs := runWithCkpt(t, g, p, 3, m, -1, 0, gd)
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("resume rank %d: %v", rank, err)
		}
	}
	got := results[0]
	for v := range want.Values {
		if got.Values[v] != want.Values[v] {
			t.Fatalf("vertex %d: resumed %v, want %v", v, got.Values[v], want.Values[v])
		}
	}
	tail := want.Metrics.Iters[len(want.Metrics.Iters)-len(got.Metrics.Iters):]
	var catchups int64
	for i, s := range got.Metrics.Iters {
		w := tail[i]
		if s.Iter != w.Iter || s.Computations != w.Computations || s.CatchUps != w.CatchUps {
			t.Fatalf("resumed superstep %d: iter/relaxations/catch-ups %d/%d/%d, uninterrupted %d/%d/%d",
				i, s.Iter, s.Computations, s.CatchUps, w.Iter, w.Computations, w.CatchUps)
		}
		catchups += s.CatchUps
	}
	if catchups == 0 {
		t.Fatal("no catch-up scan ran after the resume; the test does not exercise the rebuilt set")
	}
}

func TestCheckpointResumeIsNoOpWithoutCheckpoints(t *testing.T) {
	g := gen.Path(64)
	p := testProgram()
	m := &ckpt.Manager{Dir: t.TempDir(), Resume: true}
	results, errs := runWithCkpt(t, g, p, 2, m, -1, 0, nil)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	want := runCluster(t, g, p, 2, nil)
	for v := range want.Values {
		if results[0].Values[v] != want.Values[v] {
			t.Fatalf("vertex %d differs", v)
		}
	}
}

func TestCheckpointRejectsWrongProgram(t *testing.T) {
	g := gen.Path(32)
	m := &ckpt.Manager{Dir: t.TempDir(), Every: 1}
	if _, errs := runWithCkpt(t, g, testProgram(), 2, m, -1, 0, nil); errs[0] != nil {
		t.Fatal(errs[0])
	}
	m.Resume = true
	other := testProgram()
	other.Name = "something-else"
	_, errs := runWithCkpt(t, g, other, 2, m, -1, 0, nil)
	if errs[0] == nil && errs[1] == nil {
		t.Fatal("checkpoint for a different program accepted")
	}
}

// A shard written under the since-removed sparse delta-sync lists the owned
// vertices whose latest value reached only some ranks ("sparsedirty"), so
// its copies of other ranks' vertices may be stale. Resuming such a shard
// per rank must fail with an actionable error; the merged state of all the
// shards stays resumable, because ckpt.Merge takes each vertex from its
// owner.
func TestCheckpointRejectsSparseDirtyShard(t *testing.T) {
	const nodes = 2
	g := gen.RMAT(256, 2048, gen.DefaultRMAT, 8, 3)
	p := testProgram()
	want := runCluster(t, g, p, nodes, nil)
	m := &ckpt.Manager{Dir: t.TempDir(), Every: 2}
	if _, errs := runWithCkpt(t, g, p, nodes, m, -1, 0, nil); errs[0] != nil || errs[1] != nil {
		t.Fatal(errs)
	}
	iter, err := m.LatestComplete(nodes)
	if err != nil || iter < 0 {
		t.Fatalf("no complete checkpoint (latest %d, %v)", iter, err)
	}
	shards := make([]*ckpt.State, nodes)
	for r := range shards {
		s, err := m.Load(iter, r)
		if err != nil {
			t.Fatal(err)
		}
		if s.Sets == nil {
			s.Sets = make(map[string][]uint32)
		}
		s.Sets["sparsedirty"] = []uint32{s.Bounds[r]}
		if err := m.Save(r, s); err != nil {
			t.Fatal(err)
		}
		shards[r] = s
	}

	m.Resume = true
	_, errs := runWithCkpt(t, g, p, nodes, m, -1, 0, nil)
	for r, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "sparse delta-sync") || !strings.Contains(err.Error(), "ckpt.Merge") {
			t.Fatalf("rank %d resumed a sparse-dirty shard: got %v, want an actionable rejection", r, err)
		}
	}

	merged, err := ckpt.Merge(shards)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Sets["sparsedirty"]) == 0 {
		t.Fatal("merged state lost the sparse-dirty set; the test no longer covers it")
	}
	for r, res := range runClusterAll(t, g, p, nodes, func(_ int, cfg *Config) { cfg.Restore = merged }) {
		if !sameValues(res.Values, want.Values) {
			t.Fatalf("rank %d: run restored from the merged state differs from an uninterrupted run", r)
		}
	}
}

func TestCheckpointIncompatibleWithRebalance(t *testing.T) {
	g := gen.Path(16)
	part, _ := partition.NewChunked(g, 1)
	_, err := New[float64](Config{
		Graph: g, Comm: singleComm(t), Part: part,
		Ckpt: &ckpt.Manager{Dir: t.TempDir()}, Rebalance: true,
	})
	if err == nil {
		t.Fatal("ckpt+rebalance accepted")
	}
}
