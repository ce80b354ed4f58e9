package apps

import (
	"math"
	"math/rand"
	"testing"

	"slfe/internal/core"
	"slfe/internal/graph"
)

// TestGatherBatchMatchesEdgeFold is the differential oracle of the arith
// Gather contract: for every registered arith program, one Gather over a
// vertex's whole in-adjacency (the engine kernel's call, ws nil unless the
// program is Weighted) must be bit-identical to a left-to-right fold of
// one-edge Gather calls (the edge-centric out-of-core baseline's call,
// which always carries the edge's weight). Empty and single-edge
// adjacencies are included, and the values span many magnitudes so a
// reordered sum would round differently.
func TestGatherBatchMatchesEdgeFold(t *testing.T) {
	f64 := func(rng *rand.Rand) float64 {
		return math.Ldexp(rng.Float64()-0.5, rng.Intn(48)-24)
	}
	f32 := func(rng *rand.Rand) float32 { return float32(f64(rng)) }
	u32 := func(rng *rand.Rand) uint32 { return rng.Uint32() }
	checked := 0
	for _, entry := range Runnables() {
		if entry.Agg != core.Arith {
			continue
		}
		name := entry.Key + "/" + entry.Domain
		switch r := entry.Build(0, 5).(type) {
		case progRunner[float64]:
			checkGatherFold(t, name, r.p, f64)
		case progRunner[float32]:
			checkGatherFold(t, name, r.p, f32)
		case progRunner[uint32]:
			checkGatherFold(t, name, r.p, u32)
		default:
			t.Fatalf("%s: unexpected arith runnable %T", name, r)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no arith programs registered")
	}
}

func checkGatherFold[V comparable](t *testing.T, name string, p *core.Program[V], randVal func(*rand.Rand) V) {
	t.Helper()
	dom, ok := core.DefaultDomain[V]()
	if !ok {
		t.Fatalf("%s: no default domain", name)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(64)
		vals := make([]V, n)
		for i := range vals {
			vals[i] = randVal(rng)
		}
		deg := rng.Intn(40)
		if trial < 2 {
			deg = trial // the empty and the single-edge adjacency
		}
		ins := make([]graph.VertexID, deg)
		ws := make([]float32, deg)
		for i := range ins {
			ins[i] = graph.VertexID(rng.Intn(n))
			ws[i] = float32(math.Ldexp(rng.Float64(), rng.Intn(8)))
		}
		var start V
		if trial%2 == 1 {
			start = randVal(rng)
		}
		var batchWs []float32
		if p.Weighted {
			batchWs = ws
		}
		batch := p.Gather(start, vals, ins, batchWs)
		fold := start
		for i := range ins {
			fold = p.Gather(fold, vals, ins[i:i+1], ws[i:i+1])
		}
		if dom.Bits(batch) != dom.Bits(fold) {
			t.Fatalf("%s trial %d (deg %d): batch Gather %v, edge-at-a-time fold %v", name, trial, deg, batch, fold)
		}
	}
}
