package store

import (
	"sync/atomic"
	"testing"

	"slfe/internal/apps"
	"slfe/internal/cluster"
	"slfe/internal/core"
	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/metrics"
)

// weightCounter wraps a View and counts every InWeights and OutWeights
// call made through it or through any Cursor it hands out.
type weightCounter struct {
	graph.View
	calls *weightCalls
}

type weightCalls struct{ in, out atomic.Int64 }

func (w weightCounter) InWeights(v graph.VertexID) []float32 {
	w.calls.in.Add(1)
	return w.View.InWeights(v)
}

func (w weightCounter) OutWeights(v graph.VertexID) []float32 {
	w.calls.out.Add(1)
	return w.View.OutWeights(v)
}

func (w weightCounter) Cursor() graph.Cursor {
	return countingCursor{Cursor: w.View.Cursor(), calls: w.calls}
}

type countingCursor struct {
	graph.Cursor
	calls *weightCalls
}

func (c countingCursor) InWeights(v graph.VertexID) []float32 {
	c.calls.in.Add(1)
	return c.Cursor.InWeights(v)
}

func (c countingCursor) OutWeights(v graph.VertexID) []float32 {
	c.calls.out.Add(1)
	return c.Cursor.OutWeights(v)
}

// weightViews returns g on the heap and as mmap'd and out-of-core SLFC
// views.
func weightViews(t *testing.T, g *graph.Graph) map[string]graph.View {
	t.Helper()
	views := map[string]graph.View{"heap": g}
	for mode, sg := range viewModes(t, g) {
		views[mode] = sg
	}
	return views
}

// TestArithKernelReadsWeightsOnlyWhenWeighted pins the Program.Weighted
// contract on the heap graph and on SLFC views, the out-of-core reader
// included: the unweighted arith programs never fetch in-edge weights
// (so an SLFC weight section is never decoded for them), and the weighted
// ones fetch them exactly once per computed vertex.
func TestArithKernelReadsWeightsOnlyWhenWeighted(t *testing.T) {
	views := weightViews(t, gen.RMAT(400, 3200, gen.DefaultRMAT, 8, 17))
	weighted := map[string]bool{"spmv": true, "bp": true}
	const nodes, root, iters = 2, 0, 6
	for _, entry := range apps.Runnables() {
		if entry.Agg != core.Arith {
			continue
		}
		for mode, v := range views {
			var calls weightCalls
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
			if got := calls.in.Load(); got != want {
				t.Errorf("%s/%s on %s: %d InWeights calls, want %d", entry.Key, entry.Domain, mode, got, want)
			}
			if got := calls.out.Load(); got != 0 {
				t.Errorf("%s/%s on %s: %d OutWeights calls, want 0", entry.Key, entry.Domain, mode, got)
			}
		}
	}
}

// TestMinMaxKernelReadsWeightsOnlyWhenWeighted pins the same contract on
// the min/max kernel, in pull and push supersteps, on the heap graph and
// on SLFC views. Weight-blind programs (BFS, CC) never fetch a weight;
// weighted ones fetch a frontier vertex's out-weights once per push
// superstep, and a vertex's in-weights in a pull superstep only when it
// relaxes an edge, at most once: every fetch is followed by at least one
// of the superstep's computations. (internal/core's
// TestPullReadsOnlyNeededAdjacency pins the exact per-vertex reads.)
func TestMinMaxKernelReadsWeightsOnlyWhenWeighted(t *testing.T) {
	heap := gen.RMAT(400, 3200, gen.DefaultRMAT, 8, 19)
	views := weightViews(t, heap)
	symViews := weightViews(t, apps.Symmetrize(heap))
	weighted := map[string]bool{"sssp": true, "wp": true}
	const nodes, root = 2, 0
	var pulls, pushes int
	for _, entry := range apps.Runnables() {
		if entry.Agg != core.MinMax {
			continue
		}
		vs := views
		if entry.NeedsSym {
			vs = symViews
		}
		for mode, v := range vs {
			for _, rr := range []bool{false, true} {
				var calls weightCalls
				out, err := entry.Build(root, 0).Execute(weightCounter{View: v, calls: &calls}, cluster.Options{Nodes: nodes, RR: rr})
				if err != nil {
					t.Fatalf("%s/%s on %s rr=%v: %v", entry.Key, entry.Domain, mode, rr, err)
				}
				// Pull computations bound the in-weight fetches from above;
				// each pull superstep that computes fetches at least once.
				var maxIn, minIn, wantOut int64
				for _, it := range metrics.Merge(out.PerWorker).Iters {
					if it.Mode == metrics.Pull {
						pulls++
						maxIn += it.Computations
						if it.Computations > 0 {
							minIn++
						}
					} else {
						pushes++
						wantOut += it.ActiveVerts
					}
				}
				if !weighted[entry.Key] {
					maxIn, minIn, wantOut = 0, 0, 0
				}
				if got := calls.in.Load(); got < minIn || got > maxIn {
					t.Errorf("%s/%s on %s rr=%v: %d InWeights calls, want %d..%d", entry.Key, entry.Domain, mode, rr, got, minIn, maxIn)
				}
				if got := calls.out.Load(); got != wantOut {
					t.Errorf("%s/%s on %s rr=%v: %d OutWeights calls, want %d", entry.Key, entry.Domain, mode, rr, got, wantOut)
				}
			}
		}
	}
	if pulls == 0 || pushes == 0 {
		t.Fatalf("runs made %d pull and %d push supersteps; both modes must be covered", pulls, pushes)
	}
}
