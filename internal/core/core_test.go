package core

import (
	"math"
	"sync"
	"testing"

	"slfe/internal/comm"
	"slfe/internal/compress"
	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/partition"
	"slfe/internal/rrg"
)

// sumGather is the unweighted sum fold the test programs share.
func sumGather[V Float](acc V, vals []V, ins []graph.VertexID, _ []float32) V {
	for _, u := range ins {
		acc += vals[u]
	}
	return acc
}

func singleComm(t *testing.T) *comm.Comm {
	t.Helper()
	ts, err := comm.NewLocalGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	return comm.NewComm(ts[0])
}

func testProgram() *Program[float64] {
	return &Program[float64]{
		Name: "test-sssp",
		Agg:  MinMax,
		InitValue: func(_ graph.View, v graph.VertexID) Value {
			if v == 0 {
				return 0
			}
			return math.Inf(1)
		},
		Roots:    []graph.VertexID{0},
		Relax:    func(src Value, w float32) Value { return src + float64(w) },
		Better:   func(a, b Value) bool { return a < b },
		Weighted: true,
	}
}

func TestNewValidation(t *testing.T) {
	g := gen.Path(10)
	part, _ := partition.NewChunked(g, 1)
	cm := singleComm(t)

	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil graph", Config{Comm: cm, Part: part}},
		{"nil comm", Config{Graph: g, Part: part}},
		{"nil part", Config{Graph: g, Comm: cm}},
		{"rr without guidance", Config{Graph: g, Comm: cm, Part: part, RR: true}},
		{"guidance size mismatch", Config{Graph: g, Comm: cm, Part: part, RR: true,
			Guidance: &rrg.Guidance{LastIter: make([]uint32, 3), Level: make([]uint32, 3)}}},
	}
	for _, c := range cases {
		if _, err := New[float64](c.cfg); err == nil {
			t.Errorf("%s: config accepted", c.name)
		}
	}
	// Partition/comm size mismatch.
	badPart, _ := partition.NewChunked(g, 3)
	if _, err := New[float64](Config{Graph: g, Comm: cm, Part: badPart}); err == nil {
		t.Error("partition size mismatch accepted")
	}
	if _, err := New[float64](Config{Graph: g, Comm: cm, Part: part}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestProgramValidate(t *testing.T) {
	good := testProgram()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(p *Program[float64]){
		func(p *Program[float64]) { p.Name = "" },
		func(p *Program[float64]) { p.InitValue = nil },
		func(p *Program[float64]) { p.Relax = nil },
		func(p *Program[float64]) { p.Better = nil },
		func(p *Program[float64]) { p.Roots = nil },
		func(p *Program[float64]) { p.Agg = AggKind(9) },
	}
	for i, mutate := range cases {
		p := testProgram()
		mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid program accepted", i)
		}
	}
	arith := &Program[float64]{Name: "a", Agg: Arith, InitValue: good.InitValue}
	if err := arith.Validate(); err == nil {
		t.Error("arith without Gather/Apply accepted")
	}
}

func TestAggKindString(t *testing.T) {
	if MinMax.String() != "min/max" || Arith.String() != "arith" {
		t.Fatal("AggKind strings wrong")
	}
}

func TestRunOnSingleWorker(t *testing.T) {
	g := gen.Path(50)
	part, _ := partition.NewChunked(g, 1)
	eng, err := New[float64](Config{Graph: g, Comm: singleComm(t), Part: part})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(testProgram())
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 50; v++ {
		if res.Values[v] != float64(v) {
			t.Fatalf("dist[%d] = %v", v, res.Values[v])
		}
	}
	if res.Iterations == 0 || res.Metrics.Computations() == 0 {
		t.Fatal("metrics empty")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.MustBuild(0, nil)
	part, _ := partition.NewChunked(g, 1)
	eng, err := New[float64](Config{Graph: g, Comm: singleComm(t), Part: part})
	if err != nil {
		t.Fatal(err)
	}
	p := testProgram()
	res, err := eng.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 0 {
		t.Fatal("values non-empty")
	}
}

func TestRootOutOfRangeIgnored(t *testing.T) {
	g := gen.Path(5)
	part, _ := partition.NewChunked(g, 1)
	eng, _ := New[float64](Config{Graph: g, Comm: singleComm(t), Part: part})
	p := testProgram()
	p.Roots = []graph.VertexID{99} // silently out of range: no activity
	p.InitValue = func(_ graph.View, _ graph.VertexID) Value { return math.Inf(1) }
	res, err := eng.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Values {
		if !math.IsInf(v, 1) {
			t.Fatal("phantom activity from out-of-range root")
		}
	}
}

// The wire codecs themselves are tested in internal/compress; here we check
// the engine produces identical results whichever codec carries its deltas.
func TestCodecsProduceIdenticalResults(t *testing.T) {
	g := gen.RMAT(512, 4096, gen.DefaultRMAT, 8, 3)
	run := func(c compress.Codec) []Value {
		part, err := partition.NewChunked(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		results := make([][]Value, 3)
		transports, err := comm.NewLocalGroup(3)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for rank := 0; rank < 3; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				defer transports[rank].Close()
				eng, err := New[float64](Config{Graph: g, Comm: comm.NewComm(transports[rank]), Part: part, Codec: c})
				if err != nil {
					t.Error(err)
					return
				}
				res, err := eng.Run(testProgram())
				if err != nil {
					t.Error(err)
					return
				}
				results[rank] = res.Values
			}(rank)
		}
		wg.Wait()
		if t.Failed() {
			t.Fatal("worker failed")
		}
		for rank := 1; rank < 3; rank++ {
			for v := range results[0] {
				if results[rank][v] != results[0][v] {
					t.Fatalf("rank %d vertex %d: %v vs %v", rank, v, results[rank][v], results[0][v])
				}
			}
		}
		return results[0]
	}
	raw := run(compress.Raw{})
	xz := run(compress.VarintXOR{})
	for v := range raw {
		if raw[v] != xz[v] {
			t.Fatalf("vertex %d: raw %v, varint-xor %v", v, raw[v], xz[v])
		}
	}
}

func TestRRSuppressesWork(t *testing.T) {
	// Star + chain: the root eagerly gives every vertex an expensive direct
	// distance (3v) that the chain later improves to 2v+1, so the baseline
	// recomputes every vertex repeatedly while "start late" skips the
	// intermediate rounds. This is the Figure 1 redundancy pattern, scaled.
	const n = 800
	var edges []graph.Edge
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: graph.VertexID(v), Weight: float32(3 * v)})
		if v+1 < n {
			edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(v + 1), Weight: 2})
		}
	}
	g := graph.MustBuild(n, edges)
	part, _ := partition.NewChunked(g, 1)
	gd := rrg.Generate(g, []graph.VertexID{0}, nil)

	run := func(rr bool) *Result[float64] {
		eng, err := New[float64](Config{Graph: g, Comm: singleComm(t), Part: part, RR: rr, Guidance: gd,
			DenseDivisor: 1 << 20}) // force pull mode to exercise the RR path
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(testProgram())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(false)
	rr := run(true)
	for v := range base.Values {
		if base.Values[v] != rr.Values[v] {
			t.Fatalf("RR changed result at %d: %v vs %v", v, base.Values[v], rr.Values[v])
		}
	}
	if rr.Metrics.Suppressed() == 0 {
		t.Error("RR suppressed nothing despite multi-level redundancy")
	}
	// Every suppression must eventually be repaid by exactly one catch-up,
	// and catch-ups never exceed the vertex count.
	var catchups int64
	for _, s := range rr.Metrics.Iters {
		catchups += s.CatchUps
	}
	if catchups == 0 || catchups > int64(n) {
		t.Errorf("catch-ups = %d, want within (0, %d]", catchups, n)
	}
	// RR trades suppressed pullFunc invocations for one catch-up scan per
	// vertex; on this graph it must stay within a modest factor of the
	// baseline (the win grows with propagation depth).
	if rr.Metrics.Computations() > 2*base.Metrics.Computations() {
		t.Errorf("RR cost blew up: base %d vs rr %d",
			base.Metrics.Computations(), rr.Metrics.Computations())
	}
}

// TestCatchUpSkipsNeverActiveSources: a catch-up scan relaxes only the
// in-edges whose source has been in some frontier. Vertex 2's in-neighbour
// 3 is unreachable and never active, so the baseline never relaxes 3->2,
// and the catch-up must not either. Pull is forced; per superstep:
//
//	0: vertices 1 and 2 are suppressed and owe debt          0 relaxations
//	1: vertex 1 catches up over 0->1                          1
//	2: vertex 2 catches up over 0->2 and 1->2, not 3->2       2
//	3: vertex 2's update reaches no out-edge                  0
func TestCatchUpSkipsNeverActiveSources(t *testing.T) {
	g := graph.MustBuild(4, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1},
		{Src: 0, Dst: 2, Weight: 5}, {Src: 3, Dst: 2, Weight: 1},
	})
	part, _ := partition.NewChunked(g, 1)
	gd := &rrg.Guidance{LastIter: []uint32{0, 1, 2, 0}, Level: []uint32{0, 1, 1, rrg.Unreached}}
	run := func(rr bool) *Result[float64] {
		eng, err := New[float64](Config{Graph: g, Comm: singleComm(t), Part: part, RR: rr, Guidance: gd,
			DenseDivisor: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(testProgram())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base, rr := run(false), run(true)
	for v, want := range []Value{0, 1, 2, math.Inf(1)} {
		if base.Values[v] != want || rr.Values[v] != want {
			t.Fatalf("vertex %d: %v without RR, %v with RR, want %v", v, base.Values[v], rr.Values[v], want)
		}
	}
	want := []int64{0, 1, 2, 0}
	if len(rr.Metrics.Iters) != len(want) {
		t.Fatalf("RR run took %d supersteps, want %d", len(rr.Metrics.Iters), len(want))
	}
	for i, s := range rr.Metrics.Iters {
		if s.Computations != want[i] {
			t.Errorf("superstep %d: %d relaxations, want %d", i, s.Computations, want[i])
		}
	}
	var catchups int64
	for _, s := range rr.Metrics.Iters {
		catchups += s.CatchUps
	}
	if catchups != 2 {
		t.Errorf("%d catch-ups, want 2", catchups)
	}
	if b, r := base.Metrics.Computations(), rr.Metrics.Computations(); r > b {
		t.Errorf("RR relaxed %d edges, the baseline %d", r, b)
	}
}

func TestRRWidestPathReducesComputations(t *testing.T) {
	// The paper's Figure 1 redundancy pattern, generalised: a hub whose
	// value improves once per iteration (each chain vertex offers a wider
	// bottleneck path), fanned out to many destinations. The baseline
	// re-relaxes every hub out-edge after each improvement; "start late"
	// holds the destinations back until the hub's final value and collects
	// it with a single catch-up scan over their in-degree of one.
	const k = 60   // chain length = number of hub improvements
	const m = 2000 // fan-out destinations
	const hub = k  // vertex ids: chain 0..k-1, hub k, fan-out k+1..k+m
	var edges []graph.Edge
	for i := 0; i+1 < k; i++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1), Weight: 1000})
	}
	for i := 0; i < k; i++ {
		// Path via chain vertex i has bottleneck width i+1: the hub's
		// widest path improves at every iteration.
		edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: hub, Weight: float32(i + 1)})
	}
	for j := 0; j < m; j++ {
		edges = append(edges, graph.Edge{Src: hub, Dst: graph.VertexID(k + 1 + j), Weight: 1000})
	}
	g := graph.MustBuild(k+1+m, edges)
	part, _ := partition.NewChunked(g, 1)
	gd := rrg.Generate(g, []graph.VertexID{0}, nil)
	prog := &Program[float64]{
		Name: "wp",
		Agg:  MinMax,
		InitValue: func(_ graph.View, v graph.VertexID) Value {
			if v == 0 {
				return math.Inf(1)
			}
			return 0
		},
		Roots:    []graph.VertexID{0},
		Relax:    func(src Value, w float32) Value { return math.Min(src, float64(w)) },
		Better:   func(a, b Value) bool { return a > b },
		Weighted: true,
	}
	run := func(rr bool) *Result[float64] {
		eng, err := New[float64](Config{Graph: g, Comm: singleComm(t), Part: part, RR: rr, Guidance: gd,
			DenseDivisor: 1 << 20}) // force pull mode to exercise the RR path
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(prog)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(false)
	rr := run(true)
	for v := range base.Values {
		if base.Values[v] != rr.Values[v] {
			t.Fatalf("RR changed result at %d", v)
		}
	}
	// The hub's final width is k (widest chain detour).
	if base.Values[hub] != k {
		t.Fatalf("hub width %v, want %d", base.Values[hub], k)
	}
	// Baseline relaxes each fan-out in-edge once per hub improvement
	// (~k*m); RR cuts this to O(m) catch-up relaxations.
	if rr.Metrics.Computations() >= base.Metrics.Computations()/4 {
		t.Errorf("RR did not reduce WP computations: base %d vs rr %d",
			base.Metrics.Computations(), rr.Metrics.Computations())
	}
}

func TestMaxItersBoundsArith(t *testing.T) {
	g := gen.Uniform(100, 500, 1, 3)
	part, _ := partition.NewChunked(g, 1)
	eng, _ := New[float64](Config{Graph: g, Comm: singleComm(t), Part: part})
	p := &Program[float64]{
		Name:      "pr",
		Agg:       Arith,
		InitValue: func(graph.View, graph.VertexID) Value { return 1 },
		Gather:    sumGather[Value],
		Apply:     func(_ graph.View, _ graph.VertexID, acc, _ Value) Value { return 0.5 * acc },
		MaxIters:  7,
	}
	res, err := eng.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 7 {
		t.Fatalf("Iterations = %d, want 7", res.Iterations)
	}
}

func TestEpsilonTerminatesArith(t *testing.T) {
	g := gen.Uniform(100, 500, 1, 4)
	part, _ := partition.NewChunked(g, 1)
	eng, _ := New[float64](Config{Graph: g, Comm: singleComm(t), Part: part})
	p := &Program[float64]{
		Name:      "decay",
		Agg:       Arith,
		InitValue: func(graph.View, graph.VertexID) Value { return 1 },
		Gather:    func(acc Value, _ []Value, _ []graph.VertexID, _ []float32) Value { return acc },
		Apply:     func(_ graph.View, _ graph.VertexID, _, prev Value) Value { return prev / 2 },
		MaxIters:  1000,
		Epsilon:   1e-3,
	}
	res, err := eng.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= 1000 || res.Iterations < 5 {
		t.Fatalf("Iterations = %d, expected epsilon stop around 11", res.Iterations)
	}
}

func TestTrackLastChange(t *testing.T) {
	g := gen.Path(6)
	part, _ := partition.NewChunked(g, 1)
	eng, _ := New[float64](Config{Graph: g, Comm: singleComm(t), Part: part, TrackLastChange: true})
	res, err := eng.Run(testProgram())
	if err != nil {
		t.Fatal(err)
	}
	if res.LastChange == nil {
		t.Fatal("LastChange not tracked")
	}
	// On a path, vertex v settles at iteration v (push cascade).
	for v := 1; v < 6; v++ {
		if res.LastChange[v] < res.LastChange[v-1] {
			t.Fatalf("LastChange not monotone along path: %v", res.LastChange)
		}
	}
	if res.LastChange[0] != 0 {
		t.Fatalf("root LastChange = %d", res.LastChange[0])
	}
}

// A partially-built custom domain (hooks set, no Name) must be rejected,
// not silently replaced by the built-in default (which would drop the
// custom hooks).
func TestValidateRejectsPartialDomain(t *testing.T) {
	p := testProgram()
	p.Dom.Delta = func(a, b Value) float64 { return 1 }
	if err := p.Validate(); err == nil {
		t.Fatal("program with nameless partial domain accepted")
	}
	// WidthOf is the single name -> width source of truth.
	for name, want := range map[string]int{"f64": 8, "f32": 4, "u32": 4, "dist32": 8} {
		if w, ok := WidthOf(name); !ok || w != want {
			t.Fatalf("WidthOf(%q) = %d, %v; want %d", name, w, ok, want)
		}
	}
	if _, ok := WidthOf("f16"); ok {
		t.Fatal("WidthOf accepted an unknown domain")
	}
}
