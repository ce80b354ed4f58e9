package core

import (
	"math"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"

	"slfe/internal/graph"
	"slfe/internal/partition"
	"slfe/internal/rrg"
	"slfe/internal/store"
)

// countingView counts in-adjacency reads per vertex through every cursor
// it hands out.
type countingView struct {
	graph.View
	ins, iws []atomic.Int64
}

func newCountingView(g graph.View) *countingView {
	n := g.NumVertices()
	return &countingView{View: g, ins: make([]atomic.Int64, n), iws: make([]atomic.Int64, n)}
}

func (v *countingView) Cursor() graph.Cursor { return &countingCursor{Cursor: v.View.Cursor(), v: v} }

func (v *countingView) counts() (ins, iws []int64) {
	for i := range v.ins {
		ins = append(ins, v.ins[i].Load())
		iws = append(iws, v.iws[i].Load())
	}
	return ins, iws
}

type countingCursor struct {
	graph.Cursor
	v *countingView
}

func (c *countingCursor) InNeighbors(u graph.VertexID) []graph.VertexID {
	c.v.ins[u].Add(1)
	return c.Cursor.InNeighbors(u)
}

func (c *countingCursor) InWeights(u graph.VertexID) []float32 {
	c.v.iws[u].Add(1)
	return c.Cursor.InWeights(u)
}

// TestPullReadsOnlyNeededAdjacency pins the per-vertex in-adjacency reads
// of the start-late pull kernel on a hand-traced run. SSSP from 0 over
//
//	0→1 (1), 0→2 (5), 1→2 (1), 2→3 (1), 4→3 (1)
//
// with hand-set LastIter {0, 1, 3, 4, 0} and every frontier with out-edges
// pulled. Ruler by superstep:
//
//	0: v1 and v2 suppressed with an active in-neighbour → debt;
//	   v3 suppressed, none active → no debt
//	1: (jump to LastIter 1) v1 catches up from 0 (dist 1); v2 suppressed
//	   with debt reads nothing; v3 probes in-neighbours only
//	2: v1 pulls but no in-neighbour is active, so no weights; v2 as in 1
//	3: (jump to 3) v2 catches up from 0 and 1 (dist 2)
//	4: v3 released, relaxes 2→3 (dist 3)
//	5: frontier {3} has no out-edges: a push superstep, no in-reads
//
// Every vertex is visited in supersteps 0–4 except v2 in 1 and 2, and
// weights are read only in the three supersteps that relax.
func TestPullReadsOnlyNeededAdjacency(t *testing.T) {
	heap := graph.MustBuild(5, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 0, Dst: 2, Weight: 5}, {Src: 1, Dst: 2, Weight: 1},
		{Src: 2, Dst: 3, Weight: 1}, {Src: 4, Dst: 3, Weight: 1},
	})
	path := filepath.Join(t.TempDir(), "g.slfc")
	if err := store.Write(path, heap); err != nil {
		t.Fatal(err)
	}
	slfc, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer slfc.Close()

	for name, g := range map[string]graph.View{"heap": heap, "slfc": slfc} {
		cv := newCountingView(g)
		part, err := partition.NewChunked(cv, 1)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New[float64](Config{
			Graph: cv, Comm: singleComm(t), Part: part, Threads: 1,
			RR: true, Guidance: &rrg.Guidance{LastIter: []uint32{0, 1, 3, 4, 0}},
			DenseDivisor: math.MaxInt64,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(testProgram())
		eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		if want := []float64{0, 1, 2, 3, math.Inf(1)}; !slices.Equal(res.Values, want) {
			t.Fatalf("%s: values %v, want %v", name, res.Values, want)
		}
		m := res.Metrics
		if m.Computations() != 4 || m.Suppressed() != 8 || len(m.Iters) != 6 {
			t.Fatalf("%s: computations %d, suppressed %d, supersteps %d; want 4, 8, 6",
				name, m.Computations(), m.Suppressed(), len(m.Iters))
		}
		ins, iws := cv.counts()
		if want := []int64{5, 5, 3, 5, 5}; !slices.Equal(ins, want) {
			t.Errorf("%s: InNeighbors calls per vertex %v, want %v", name, ins, want)
		}
		if want := []int64{0, 1, 1, 1, 0}; !slices.Equal(iws, want) {
			t.Errorf("%s: InWeights calls per vertex %v, want %v", name, iws, want)
		}
	}
}
