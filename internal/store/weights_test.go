package store

import (
	"sync/atomic"
	"testing"

	"slfe/internal/apps"
	"slfe/internal/cluster"
	"slfe/internal/core"
	"slfe/internal/gen"
	"slfe/internal/graph"
)

// weightCounter wraps a View and counts every InWeights call made through
// it or through any Cursor it hands out.
type weightCounter struct {
	graph.View
	calls *atomic.Int64
}

func (w weightCounter) InWeights(v graph.VertexID) []float32 {
	w.calls.Add(1)
	return w.View.InWeights(v)
}

func (w weightCounter) Cursor() graph.Cursor {
	return countingCursor{Cursor: w.View.Cursor(), calls: w.calls}
}

type countingCursor struct {
	graph.Cursor
	calls *atomic.Int64
}

func (c countingCursor) InWeights(v graph.VertexID) []float32 {
	c.calls.Add(1)
	return c.Cursor.InWeights(v)
}

// TestArithKernelReadsWeightsOnlyWhenWeighted pins the Program.Weighted
// contract on the heap graph and on SLFC views, the out-of-core reader
// included: the unweighted arith programs never fetch in-edge weights
// (so an SLFC weight section is never decoded for them), and the weighted
// ones fetch them exactly once per computed vertex.
func TestArithKernelReadsWeightsOnlyWhenWeighted(t *testing.T) {
	heap := gen.RMAT(400, 3200, gen.DefaultRMAT, 8, 17)
	views := map[string]graph.View{"heap": heap}
	for mode, sg := range viewModes(t, heap) {
		views[mode] = sg
	}
	weighted := map[string]bool{"spmv": true, "bp": true}
	const nodes, root, iters = 2, 0, 6
	for _, entry := range apps.Runnables() {
		if entry.Agg != core.Arith {
			continue
		}
		for mode, v := range views {
			var calls atomic.Int64
			out, err := entry.Build(root, iters).Execute(weightCounter{View: v, calls: &calls}, cluster.Options{Nodes: nodes, RR: true})
			if err != nil {
				t.Fatalf("%s/%s on %s: %v", entry.Key, entry.Domain, mode, err)
			}
			var want int64
			if weighted[entry.Key] {
				steps := len(out.PerWorker[0].Iters)
				want = int64(v.NumVertices() * steps)
				for _, run := range out.PerWorker {
					if len(run.Iters) != steps {
						t.Fatalf("%s/%s on %s: workers ran %d and %d supersteps", entry.Key, entry.Domain, mode, steps, len(run.Iters))
					}
					want -= run.Suppressed()
				}
			}
			if got := calls.Load(); got != want {
				t.Errorf("%s/%s on %s: %d InWeights calls, want %d", entry.Key, entry.Domain, mode, got, want)
			}
		}
	}
}
