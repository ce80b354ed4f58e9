package apps

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"slfe/internal/cluster"
	"slfe/internal/core"
	"slfe/internal/gen"
	"slfe/internal/graph"
)

// TestMinMaxRunnablesMatchReferenceWeighted runs every registered min/max
// runnable on a graph whose edge weights are not all 1 and checks it
// against its sequential oracle. A weighted program that forgot
// Program.Weighted would relax every edge with w = 0 and fail here.
func TestMinMaxRunnablesMatchReferenceWeighted(t *testing.T) {
	g := gen.RMAT(700, 5600, gen.DefaultRMAT, 16, 41)
	nonUnit := 0
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.OutWeights(graph.VertexID(v)) {
			if w != 1 {
				nonUnit++
			}
		}
	}
	if nonUnit == 0 {
		t.Fatal("test graph has only unit weights")
	}
	sym := Symmetrize(g)
	const root = 0
	refs := map[string][]core.Value{
		"sssp": RefSSSP(g, root),
		"bfs":  RefBFS(g, root),
		"wp":   RefWP(g, root),
		"cc":   RefCC(sym),
	}
	checked := 0
	for _, entry := range Runnables() {
		if entry.Agg != core.MinMax || strings.HasPrefix(entry.Key, "dup-test") {
			continue
		}
		want, ok := refs[entry.Key]
		if !ok {
			t.Fatalf("%s/%s: no reference oracle", entry.Key, entry.Domain)
		}
		runG := g
		if entry.NeedsSym {
			runG = sym
		}
		for _, rr := range []bool{false, true} {
			out, err := entry.Build(root, 0).Execute(runG, cluster.Options{Nodes: 2, Threads: 2, RR: rr})
			if err != nil {
				t.Fatalf("%s/%s rr=%v: %v", entry.Key, entry.Domain, rr, err)
			}
			for v, w := range want {
				if !matchesRef(out.Values[v], w, entry.Domain) {
					t.Fatalf("%s/%s rr=%v: vertex %d = %v, reference %v", entry.Key, entry.Domain, rr, v, out.Values[v], w)
				}
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no min/max programs registered")
	}
}

// matchesRef compares a domain-projected value with a float64 reference:
// exactly for f64 and integer domains, to float32 rounding for f32 and
// dist32, with u32's unreached sentinel standing for +Inf.
func matchesRef(got, want float64, domain string) bool {
	switch {
	case math.IsInf(want, 1):
		return math.IsInf(got, 1) || (domain == "u32" && got == core.U32Unreached)
	case domain == "f32" || domain == "dist32":
		return math.Abs(got-want) <= 1e-5*math.Max(1, math.Abs(want))
	default:
		return got == want
	}
}

// TestArithKernelScheduleInvariant is the differential oracle of the
// fused arith superstep (gather, apply, stability update and change
// marking in one compute pass, then a parallel copy-only commit): every
// registered arith program must give bit-identical values and identical
// per-superstep, per-worker Computations, Updates, Suppressed and
// ECGlobal whether it runs on 1 or 3 threads and with serial or
// overlapped delta-sync, with redundancy reduction both off and on.
func TestArithKernelScheduleInvariant(t *testing.T) {
	g := gen.RMAT(600, 4800, gen.DefaultRMAT, 8, 43)
	type setting struct {
		threads int
		serial  bool
	}
	settings := []setting{{1, true}, {3, true}, {1, false}, {3, false}}
	checked := 0
	for _, entry := range Runnables() {
		if entry.Agg != core.Arith || strings.HasPrefix(entry.Key, "dup-test") {
			continue
		}
		for _, rr := range []bool{false, true} {
			var base *Outcome
			for _, s := range settings {
				name := fmt.Sprintf("%s/%s rr=%v threads=%d serial=%v", entry.Key, entry.Domain, rr, s.threads, s.serial)
				out, err := entry.Build(0, 12).Execute(g, cluster.Options{Nodes: 2, Threads: s.threads, SerialSync: s.serial, RR: rr})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if base == nil {
					base = out
					continue
				}
				for v := range base.Values {
					if math.Float64bits(out.Values[v]) != math.Float64bits(base.Values[v]) {
						t.Fatalf("%s: vertex %d = %v, want %v", name, v, out.Values[v], base.Values[v])
					}
				}
				for w, run := range out.PerWorker {
					want := base.PerWorker[w].Iters
					if len(run.Iters) != len(want) {
						t.Fatalf("%s: worker %d ran %d supersteps, want %d", name, w, len(run.Iters), len(want))
					}
					for i, it := range run.Iters {
						b := want[i]
						if it.Computations != b.Computations || it.Updates != b.Updates ||
							it.Suppressed != b.Suppressed || it.ECGlobal != b.ECGlobal {
							t.Fatalf("%s: worker %d superstep %d: comps/updates/suppressed/ec %d/%d/%d/%d, want %d/%d/%d/%d",
								name, w, i, it.Computations, it.Updates, it.Suppressed, it.ECGlobal,
								b.Computations, b.Updates, b.Suppressed, b.ECGlobal)
						}
					}
				}
			}
			if rr && base.PerWorker[0].Iters[len(base.PerWorker[0].Iters)-1].ECGlobal == 0 && entry.Key == "pr" {
				t.Fatalf("%s/%s: no vertex early-converged; the test exercises no finish-early work", entry.Key, entry.Domain)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no arith programs registered")
	}
}
