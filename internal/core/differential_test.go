// Differential transport test: every registered application must produce
// bit-identical results over the in-process transport and over a real TCP
// mesh, through both delta-sync pipelines (serial and overlapped). The
// engine is transport- and pipeline-agnostic by contract; this is the
// contract's enforcement.
package core_test

import (
	"fmt"
	"math"
	"testing"

	"slfe/internal/apps"
	"slfe/internal/cluster"
	"slfe/internal/core"
	"slfe/internal/gen"
	"slfe/internal/graph"
)

// diffApps lists the Program-shaped registered applications (the whole-
// graph analytics — triangles, MST, clique, diameter — are compositions of
// these and run through the same engine).
func diffApps(g *graph.Graph) map[string]struct {
	prog *core.Program[float64]
	g    *graph.Graph
} {
	sym := apps.Symmetrize(g)
	return map[string]struct {
		prog *core.Program[float64]
		g    *graph.Graph
	}{
		"SSSP":     {apps.SSSP(0), g},
		"BFS":      {apps.BFS(0), g},
		"CC":       {apps.CC(sym), sym},
		"WP":       {apps.WP(0), g},
		"PR":       {apps.PageRank(8), g},
		"TR":       {apps.TunkRank(8), g},
		"SpMV":     {apps.SpMV(6), g},
		"NumPaths": {apps.NumPaths(0, 6), g},
	}
}

func bitIdentical(a, b []core.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestDifferentialTransportsAndStrategies is the engine's core contract
// check: for every registered application, both sync pipelines (serial
// oracle | overlapped streaming), over both the in-process transport and a
// real TCP mesh, must produce values bit-identical to the serial
// in-process reference.
func TestDifferentialTransportsAndStrategies(t *testing.T) {
	const nodes = 3
	g := gen.RMAT(512, 4096, gen.DefaultRMAT, 8, 13)
	for name, app := range diffApps(g) {
		app := app
		t.Run(name, func(t *testing.T) {
			// Reference: serial in-process run. Guidance is generated once
			// so every variant sees identical redundancy-reduction
			// decisions.
			ref, err := cluster.Execute(app.g, app.prog, cluster.Options{Nodes: nodes, RR: true, SerialSync: true})
			if err != nil {
				t.Fatal(err)
			}
			gd := ref.Guidance
			for _, serial := range []bool{true, false} {
				label := fmt.Sprintf("serial=%v", serial)
				inproc, err := cluster.Execute(app.g, app.prog, cluster.Options{
					Nodes: nodes, RR: true, Guidance: gd, SerialSync: serial,
				})
				if err != nil {
					t.Fatalf("in-process %s: %v", label, err)
				}
				if !bitIdentical(inproc.Result.Values, ref.Result.Values) {
					t.Fatalf("in-process %s differs from serial reference", label)
				}
				tcp := runTCPDomain(t, app.g, app.prog, nodes, serial, gd)
				for rank, vals := range tcp {
					if !bitIdentical(vals, ref.Result.Values) {
						t.Fatalf("TCP %s: rank %d differs from serial reference", label, rank)
					}
				}
			}
		})
	}
}
