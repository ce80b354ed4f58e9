package core

import (
	"fmt"

	"slfe/internal/bitset"
	"slfe/internal/ckpt"
	"slfe/internal/comm"
	"slfe/internal/graph"
	"slfe/internal/metrics"
)

// arithKernel is the all-vertex pull kernel for arithmetic aggregations
// with the "finish early" rule of Algorithm 5 (multi Ruler: the per-vertex
// stability counter), plugged into the shared superstep driver.
type arithKernel[V comparable] struct {
	e  *Engine[V]
	p  *Program[V]
	st *state[V]

	changed *bitset.Atomic
	// RulerS of Algorithm 2 / stableCnt of Algorithm 5.
	stableCnt []uint32
	stableVal []V
	scratch   []V
	slack     uint32
	maxIters  int
	// rr and lastIter hoist Config.RR and Guidance.LastIter (nil without
	// RR) out of the per-vertex loops.
	rr       bool
	lastIter []uint32

	// Per-thread counters and local max delta, each written once per
	// chunk. ec counts early-converged owned vertices: those frozen
	// before the superstep plus those its stability update froze.
	comps, suppressed, updates, ec []int64
	maxDelta                       []float64
	ecCount                        int64

	// Pre-created compute and commit bodies, so dispatching a superstep
	// allocates nothing.
	gatherBody, commitBody func(clo, chi uint32, thread int)
}

func newArithKernel[V comparable](e *Engine[V], p *Program[V], st *state[V], changed *bitset.Atomic) *arithKernel[V] {
	n := e.g.NumVertices()
	threads := e.sched.Threads()
	k := &arithKernel[V]{
		e: e, p: p, st: st,
		changed:    changed,
		stableCnt:  make([]uint32, n),
		stableVal:  make([]V, n),
		scratch:    make([]V, n),
		maxIters:   p.maxItersOrDefault(),
		comps:      make([]int64, threads),
		suppressed: make([]int64, threads),
		updates:    make([]int64, threads),
		ec:         make([]int64, threads),
		maxDelta:   make([]float64, threads),
	}
	copy(k.stableVal, st.values)
	if e.cfg.RR {
		k.rr, k.lastIter = true, e.cfg.Guidance.LastIter
	}
	// A vertex is early-converged once its stability streak strictly
	// exceeds its lastIter (§2.2: "x > its maximum/latest propagation
	// level"; Algorithm 5's pseudo-code tests stableCnt < lastIter, but the
	// strict prose version is required for correctness — an update can
	// arrive exactly one round after lastIter when contributions cancel
	// transiently, e.g. opposing evidence in BeliefPropagation). ECSlack
	// widens the margin further for programs that want extra safety.
	k.slack = 1
	if p.ECSlack > 1 {
		k.slack = uint32(p.ECSlack)
	}
	k.gatherBody = k.computeChunk
	k.commitBody = k.commitChunk
	return k
}

// ecFrozen reports whether v's stability streak has outlived its guidance.
func (k *arithKernel[V]) ecFrozen(v graph.VertexID) bool {
	return k.stableCnt[v] >= k.lastIter[v]+k.slack
}

func (k *arithKernel[V]) kind() ckpt.Kind          { return ckpt.Arith }
func (k *arithKernel[V]) superstepCap() int        { return k.maxIters + 1 }
func (k *arithKernel[V]) frontier() *bitset.Atomic { return nil }

func (k *arithKernel[V]) restore(snap *ckpt.State) error {
	n := k.e.g.NumVertices()
	if len(snap.StableCnt) != n || len(snap.StableVal) != n {
		return fmt.Errorf("core: checkpoint stability arrays sized %d/%d for %d vertices",
			len(snap.StableCnt), len(snap.StableVal), n)
	}
	copy(k.stableCnt, snap.StableCnt)
	k.e.decodeValues(k.stableVal, snap.StableVal)
	return nil
}

func (k *arithKernel[V]) snapshot(snap *ckpt.State) {
	snap.StableCnt = k.stableCnt
	snap.StableVal = k.e.encodeValues(k.stableVal)
}

func (k *arithKernel[V]) stepBegin(iter *int, stat *metrics.IterStat) (bool, error) {
	if *iter >= k.maxIters {
		return true, nil
	}
	stat.Iter = *iter
	stat.Mode = metrics.Pull
	stat.ActiveVerts = int64(k.e.g.NumVertices())
	for t := range k.comps {
		k.comps[t], k.suppressed[t], k.updates[t], k.ec[t] = 0, 0, 0, 0
		k.maxDelta[t] = 0
	}
	return false, nil
}

// stagedCompute implements kernel: the gather/apply compute always stages
// into scratch chunk-locally, so every arith superstep may stream.
func (k *arithKernel[V]) stagedCompute() ([]V, bool) { return k.scratch, true }

func (k *arithKernel[V]) compute(_ int, _ *metrics.IterStat) error {
	wsStats := k.e.computeOwned(k.gatherBody)
	k.st.run.Steals += wsStats.Steals
	return nil
}

// computeChunk runs one chunk of the owned range through the whole of
// Algorithm 5 for each vertex: gather and apply into scratch (BSP-pure:
// the value array is only read), then vertexUpdate — the stability streak,
// the |Δ| > 0 change test and the early-converged count. Each computed
// vertex costs one Gather call over its whole in-adjacency. Changed
// vertices collect in a bitset.Batch, which reaches the changed set with
// one atomic OR per 64-vertex word before the chunk returns, so the
// overlapped pipeline can emit the chunk's deltas right away. Counts
// accumulate chunk-locally and reach the per-thread slots once per chunk,
// so threads do not contend for the slots' shared cache line.
func (k *arithKernel[V]) computeChunk(clo, chi uint32, th int) {
	e, p := k.e, k.p
	cur, vals := e.curs[th], k.st.values
	scratch, stableCnt, stableVal := k.scratch, k.stableCnt, k.stableVal
	proj, delta := e.dom.Float64, e.dom.Delta
	var zero V
	var comps, suppressed, frozen int64
	var maxDelta float64
	changed := k.changed.Batch()
	for v := clo; v < chi; v++ {
		vid := graph.VertexID(v)
		// Algorithm 5 line 15: compute only while the stability
		// streak is within the vertex's LastIter+slack; afterwards
		// the vertex is early-converged and its cached value is
		// reused ("finish early"). The +slack also guarantees every
		// vertex computes at least once before freezing (vertices
		// with no reachable in-neighbours have LastIter 0).
		if k.rr && k.ecFrozen(vid) {
			suppressed++
			continue
		}
		ins := cur.InNeighbors(vid)
		var ws []float32
		if p.Weighted {
			ws = cur.InWeights(vid)
		}
		acc := p.Gather(zero, vals, ins, ws)
		comps += int64(len(ins))
		newVal := p.Apply(e.g, vid, acc, vals[v])
		scratch[v] = newVal
		// vertexUpdate (Algorithm 5 lines 13-18).
		if p.stable(proj, newVal, stableVal[v]) {
			stableCnt[v]++
			if k.rr && k.ecFrozen(vid) {
				frozen++
			}
		} else {
			stableCnt[v] = 0
			stableVal[v] = newVal
		}
		if d := delta(vals[v], newVal); d > 0 {
			if d > maxDelta {
				maxDelta = d
			}
			changed.Set(int(v))
		}
	}
	changed.Flush()
	k.comps[th] += comps
	k.suppressed[th] += suppressed
	k.ec[th] += suppressed + frozen
	k.maxDelta[th] = max(k.maxDelta[th], maxDelta)
}

// commitChunk copies one chunk's changed staged values into the value
// array; each is one "update" (the Table 2 metric).
func (k *arithKernel[V]) commitChunk(clo, chi uint32, th int) {
	k.updates[th] += copyChanged(k.st.values, k.scratch, k.changed, clo, chi)
}

// commit applies the values computeChunk staged and marked, in parallel
// over the owned range, and folds the per-thread counters into stat.
func (k *arithKernel[V]) commit(_ int, stat *metrics.IterStat) error {
	e := k.e
	e.sched.Run(uint32(e.lo), uint32(e.hi), k.commitBody)
	for t := range k.comps {
		stat.Computations += k.comps[t]
		stat.Updates += k.updates[t]
		stat.Suppressed += k.suppressed[t]
	}
	return nil
}

func (k *arithKernel[V]) stepEnd(_ int, stat *metrics.IterStat) (bool, error) {
	e, p := k.e, k.p
	// Global termination checks.
	var localDelta float64
	var localEC int64
	for t := range k.maxDelta {
		localDelta = max(localDelta, k.maxDelta[t])
		localEC += k.ec[t]
	}
	maxDelta, err := e.comm.AllReduceF64(localDelta, comm.OpMax)
	if err != nil {
		return false, err
	}
	k.ecCount, err = e.comm.AllReduceI64(localEC, comm.OpSum)
	if err != nil {
		return false, err
	}
	stat.ECGlobal = k.ecCount
	if p.Epsilon > 0 && maxDelta <= p.Epsilon {
		return true, nil
	}
	if k.rr && k.ecCount == int64(e.g.NumVertices()) {
		return true, nil
	}
	return false, nil
}

// onAcquire is a no-op: acquired vertices start with a zeroed local
// stability streak, so they simply recompute until they stabilise again —
// no transfer of stableCnt is needed for correctness.
func (k *arithKernel[V]) onAcquire(graph.VertexID) {}

func (k *arithKernel[V]) finish(res *Result[V]) { res.ECCount = k.ecCount }
