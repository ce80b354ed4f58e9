package core

import (
	"math"
	"testing"

	"slfe/internal/bitset"
	"slfe/internal/comm"
	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/partition"
	"slfe/internal/rrg"
	"slfe/internal/ws"
)

// TestArithECCountMatchesOwnedScan checks the early-converged count the
// arith kernel accumulates during compute (vertices frozen before the
// superstep plus those its stability update froze) against the direct
// oracle: after every superstep, each rank scans its owned range for
// frozen vertices, and the scans must sum to that superstep's ECGlobal.
// The run must also freeze vertices during compute, so a count that kept
// only the frozen-before term would fail.
func TestArithECCountMatchesOwnedScan(t *testing.T) {
	const nodes = 2
	g := gen.RMAT(500, 4000, gen.DefaultRMAT, 8, 7)
	gd := rrg.Generate(g, []graph.VertexID{0}, ws.New(2, false))
	part, err := partition.NewChunked(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	transports, err := comm.NewLocalGroup(nodes)
	if err != nil {
		t.Fatal(err)
	}
	p := testArith()
	p.MaxIters = 40
	results := make([]*Result[float64], nodes)
	scans := make([][]int64, nodes)
	errs := make([]error, nodes)
	done := make(chan struct{}, nodes)
	for rank := 0; rank < nodes; rank++ {
		go func(rank int) {
			defer func() { done <- struct{}{} }()
			defer transports[rank].Close()
			var eng *Engine[float64]
			var k *arithKernel[float64]
			cfg := Config{Graph: g, Comm: comm.NewComm(transports[rank]), Part: part,
				Threads: 2, RR: true, Guidance: gd,
				Progress: func(int) {
					var frozen int64
					for v := eng.lo; v < eng.hi; v++ {
						if k.ecFrozen(v) {
							frozen++
						}
					}
					scans[rank] = append(scans[rank], frozen)
				}}
			if eng, errs[rank] = New[float64](cfg); errs[rank] != nil {
				return
			}
			defer eng.Close()
			dom, err := p.domain()
			if err == nil {
				err = eng.bindDomain(dom)
			}
			if err != nil {
				errs[rank] = err
				return
			}
			st := eng.newState(p)
			changed := bitset.NewAtomic(g.NumVertices())
			k = newArithKernel(eng, p, st, changed)
			results[rank], errs[rank] = eng.runSupersteps(p, k, st, changed)
		}(rank)
	}
	for i := 0; i < nodes; i++ {
		<-done
	}
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	iters := results[0].Metrics.Iters
	newlyFrozen := false
	for i, it := range iters {
		var scanned, suppressed int64
		for rank := range results {
			scanned += scans[rank][i]
			suppressed += results[rank].Metrics.Iters[i].Suppressed
		}
		if it.ECGlobal != scanned {
			t.Fatalf("superstep %d: ECGlobal %d, owned-range scans find %d frozen vertices", i, it.ECGlobal, scanned)
		}
		newlyFrozen = newlyFrozen || scanned > suppressed
	}
	if !newlyFrozen {
		t.Fatal("no vertex froze during a compute phase; the test does not exercise the newly-frozen count")
	}
	if results[0].ECCount == 0 {
		t.Fatal("no vertex early-converged")
	}
}

// TestStableMatchesRelativeTolerance pins Program.stable to the relative
// tolerance |a-b| <= eps*max(|a|, |b|) as math.Max computes it, over
// ordinary values and the special ones (signed zeros, infinities, NaN).
func TestStableMatchesRelativeTolerance(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 1 + 1e-9, 1 + 1e-3, 1e300, -1e-300,
		math.Inf(1), math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64}
	dom := F64()
	for _, eps := range []float64{0, 1e-7, 1e-2} {
		p := &Program[float64]{StableEps: eps}
		for _, a := range vals {
			for _, b := range vals {
				want := a == b
				if eps != 0 {
					want = math.Abs(a-b) <= eps*math.Max(math.Abs(a), math.Abs(b))
				}
				if got := p.stable(dom.Float64, a, b); got != want {
					t.Errorf("eps %g: stable(%g, %g) = %v, want %v", eps, a, b, got, want)
				}
			}
		}
	}
}
