package cluster

import (
	"testing"

	"slfe/internal/ckpt"
	"slfe/internal/compress"
	"slfe/internal/core"
	"slfe/internal/gen"
	"slfe/internal/graph"
)

func ssspProgram() *core.Program[float64] {
	return &core.Program[float64]{
		Name: "sssp",
		Agg:  core.MinMax,
		InitValue: func(_ graph.View, v graph.VertexID) core.Value {
			if v == 0 {
				return 0
			}
			return 1e300
		},
		Roots:    []graph.VertexID{0},
		Relax:    func(src core.Value, w float32) core.Value { return src + float64(w) },
		Better:   func(a, b core.Value) bool { return a < b },
		Weighted: true,
	}
}

// TestOptionsCombinations drives the engine-feature options end to end
// through Execute and checks they all yield the reference result.
func TestOptionsCombinations(t *testing.T) {
	g := gen.RMAT(1024, 8192, gen.DefaultRMAT, 16, 31)
	base, err := Execute(g, ssspProgram(), Options{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opt  Options
	}{
		{"codec", Options{Nodes: 4, Codec: compress.VarintXOR{}}},
		{"rebalance", Options{Nodes: 4, Rebalance: true, RebalanceEvery: 1, RebalanceDamping: 1}},
		{"rr+codec", Options{Nodes: 4, RR: true, Codec: compress.VarintXOR{}}},
		{"rr+rebalance", Options{Nodes: 4, RR: true, Rebalance: true, RebalanceEvery: 2}},
		{"ckpt", Options{Nodes: 4, Ckpt: &ckpt.Manager{Dir: t.TempDir(), Every: 2}}},
		{"everything-compatible", Options{Nodes: 4, RR: true, Stealing: true, Threads: 2,
			Codec: compress.VarintXOR{}, Ckpt: &ckpt.Manager{Dir: t.TempDir(), Every: 3}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Execute(g, ssspProgram(), c.opt)
			if err != nil {
				t.Fatal(err)
			}
			for v := range base.Result.Values {
				if res.Result.Values[v] != base.Result.Values[v] {
					t.Fatalf("vertex %d: %v, want %v", v, res.Result.Values[v], base.Result.Values[v])
				}
			}
		})
	}
}

// TestCkptRebalanceRejectedThroughExecute surfaces the engine's
// incompatibility check at the cluster API.
func TestCkptRebalanceRejectedThroughExecute(t *testing.T) {
	g := gen.Path(32)
	_, err := Execute(g, ssspProgram(), Options{
		Nodes: 2, Rebalance: true,
		Ckpt: &ckpt.Manager{Dir: t.TempDir()},
	})
	if err == nil {
		t.Fatal("ckpt+rebalance accepted through Execute")
	}
}

// TestCkptResumeThroughExecute checks the cluster-level resume path: a
// checkpointed run followed by a resumed run that skips the prefix.
func TestCkptResumeThroughExecute(t *testing.T) {
	g := gen.RMAT(512, 4096, gen.DefaultRMAT, 1, 37)
	p := &core.Program[float64]{
		Name:      "pr",
		Agg:       core.Arith,
		InitValue: func(_ graph.View, _ graph.VertexID) core.Value { return 1 },
		Gather: func(acc core.Value, vals []core.Value, ins []graph.VertexID, _ []float32) core.Value {
			for _, u := range ins {
				acc += vals[u]
			}
			return acc
		},
		Apply: func(g graph.View, v graph.VertexID, acc, _ core.Value) core.Value {
			if d := g.OutDegree(v); d > 0 {
				return (0.15 + 0.85*acc) / float64(d)
			}
			return 0.15 + 0.85*acc
		},
		MaxIters: 20,
	}
	want, err := Execute(g, p, Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := &ckpt.Manager{Dir: t.TempDir(), Every: 5}
	if _, err := Execute(g, p, Options{Nodes: 2, Ckpt: m}); err != nil {
		t.Fatal(err)
	}
	m.Resume = true
	res, err := Execute(g, p, Options{Nodes: 2, Ckpt: m})
	if err != nil {
		t.Fatal(err)
	}
	if res.Result.Iterations >= want.Result.Iterations {
		t.Fatalf("resumed run executed %d iterations, full run %d", res.Result.Iterations, want.Result.Iterations)
	}
	for v := range want.Result.Values {
		if res.Result.Values[v] != want.Result.Values[v] {
			t.Fatalf("vertex %d differs", v)
		}
	}
}
