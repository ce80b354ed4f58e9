// Package cluster orchestrates SPMD execution of the SLFE engine across a
// group of workers ("nodes" in the paper's 8-node cluster). Workers run as
// goroutines over an in-process transport by default — the engine itself is
// transport-agnostic, so the same code runs over TCP (see the components
// example) — and every cross-worker byte flows through internal/comm.
package cluster

import (
	"fmt"
	"sync"
	"time"

	"slfe/internal/ckpt"
	"slfe/internal/comm"
	"slfe/internal/compress"
	"slfe/internal/core"
	"slfe/internal/graph"
	"slfe/internal/metrics"
	"slfe/internal/partition"
	"slfe/internal/rrg"
	"slfe/internal/ws"
)

// Options configures a cluster execution.
type Options struct {
	// Nodes is the simulated cluster size (default 1).
	Nodes int
	// Threads per node (<=0: GOMAXPROCS).
	Threads int
	// Stealing enables the intra-node work-stealing scheduler.
	Stealing bool
	// RR enables redundancy reduction.
	RR bool
	// GuidanceRoots seeds preprocessing (nil: rrg.DefaultRoots ∪ program
	// roots).
	GuidanceRoots []graph.VertexID
	// Guidance reuses a previously generated guidance (skips preprocessing).
	Guidance *rrg.Guidance
	// TrackLastChange records per-vertex last-update iterations.
	TrackLastChange bool
	// DenseDivisor overrides the push/pull switch threshold.
	DenseDivisor int64
	// Codec selects the delta-sync wire codec (nil: compress.Raw).
	Codec compress.Codec
	// MapPush selects the seed's map-based push combining instead of the
	// flat combiner; see core.Config.MapPush.
	MapPush bool
	// SerialSync disables the overlapped superstep pipeline and runs
	// delta-sync strictly after the compute barrier; see
	// core.Config.SerialSync.
	SerialSync bool
	// MeasureAllocs records per-superstep heap-allocation deltas; see
	// core.Config.MeasureAllocs (only attributable with Nodes=1).
	MeasureAllocs bool
	// Rebalance enables dynamic inter-node boundary adjustment; see
	// core.Config.Rebalance.
	Rebalance bool
	// RebalanceEvery is the rebalance window in iterations (default 4).
	RebalanceEvery int
	// RebalanceDamping in (0,1] scales boundary moves (default 0.5).
	RebalanceDamping float64
	// Ckpt enables superstep checkpointing; see core.Config.Ckpt.
	Ckpt *ckpt.Manager
	// FT enables rank-failure tolerance: heartbeat failure detection,
	// buddy-replicated checkpoints and automatic recovery onto the
	// surviving ranks. Execute routes to the recovery driver when set (see
	// ExecuteFT); sessions and caller-provided transports cannot host it.
	// Incompatible with Ckpt (the driver owns one private checkpoint
	// manager per rank) and with Rebalance.
	FT *FTOptions

	// Recovery-epoch plumbing, set only by the FT driver when it re-enters
	// run for each membership epoch.
	perRankCkpt []*ckpt.Manager // private checkpoint manager per rank
	restore     *ckpt.State     // pre-merged restore state for every rank
	// restorePerRank overrides restore for individual ranks: a rejoined
	// rank resumes from the state shipped over its rejoin connection, not
	// from the driver's in-memory merge.
	restorePerRank []*ckpt.State
	bounds         []uint32       // explicit partition boundaries
	progress       func(iter int) // per-superstep progress hook
}

// RunResult is the outcome of a cluster execution over property type V.
type RunResult[V comparable] struct {
	// Result is worker 0's result; values are synchronised, so it is the
	// cluster result.
	Result *core.Result[V]
	// PerWorker holds each worker's metrics.
	PerWorker []*metrics.Run
	// Guidance is the RRG used (nil when RR is off).
	Guidance *rrg.Guidance
	// PreprocessTime is the RRG generation cost (zero if reused or RR off).
	PreprocessTime time.Duration
	// Comm aggregates message/byte counts over all workers.
	Comm comm.Stats
	// Elapsed is the wall-clock execution time (excluding preprocessing).
	Elapsed time.Duration
	// Recovery describes failure detection and recovery when the run used
	// Options.FT (nil otherwise).
	Recovery *RecoveryReport
}

// Execute partitions g, optionally generates RR guidance, and runs the
// program on an in-process cluster.
func Execute[V comparable](g graph.View, p *core.Program[V], opt Options) (*RunResult[V], error) {
	if opt.FT != nil {
		return ExecuteFT(g, p, opt)
	}
	if opt.Nodes <= 0 {
		opt.Nodes = 1
	}
	transports, err := comm.NewLocalGroup(opt.Nodes)
	if err != nil {
		return nil, err
	}
	return ExecuteOver(g, p, opt, transports)
}

// ExecuteOver runs the program over caller-provided transports, one per
// rank — e.g. a loopback TCP mesh from comm.LoopbackTCP — with the same
// orchestration as Execute (opt.Nodes is taken from the transport count).
// The transports are closed when every rank has finished, never earlier: a
// premature close can reset connections still carrying a slower peer's
// final collective results.
func ExecuteOver[V comparable](g graph.View, p *core.Program[V], opt Options, transports []comm.Transport) (*RunResult[V], error) {
	defer func() {
		for _, t := range transports {
			t.Close()
		}
	}()
	return run(g, p, opt, transports, nil, nil)
}

// run is the shared execution body of ExecuteOver and ExecuteSession:
// partition, optional guidance generation, one engine goroutine per rank.
// comms/scheds, when non-nil, supply persistent per-rank communicators and
// scheduler pools (session mode); when nil each run builds fresh ones and
// the engines own their pools.
func run[V comparable](g graph.View, p *core.Program[V], opt Options, transports []comm.Transport, comms []*comm.Comm, scheds []*ws.Scheduler) (*RunResult[V], error) {
	opt.Nodes = len(transports)
	if opt.Nodes == 0 {
		return nil, fmt.Errorf("cluster: no transports")
	}
	if opt.FT != nil {
		return nil, fmt.Errorf("cluster: FT recovery runs only through Execute (the driver owns the transport group); sessions and caller-provided transports cannot host it")
	}
	var part *partition.Chunked
	var err error
	if opt.bounds != nil {
		// A recovery epoch installs the shrunk ownership map derived from
		// the dead epoch's checkpoint bounds instead of re-chunking.
		part, err = partition.FromBounds(opt.bounds)
	} else {
		part, err = partition.NewChunked(g, opt.Nodes)
	}
	if err != nil {
		return nil, err
	}

	out := &RunResult[V]{}
	var guidance *rrg.Guidance
	if opt.RR {
		if opt.Guidance != nil {
			guidance = opt.Guidance
		} else {
			roots := opt.GuidanceRoots
			if roots == nil {
				// Min/max programs propagate from their own roots, so the
				// guidance must describe exactly that propagation; arith
				// programs have no roots and use the reusable default set.
				if len(p.Roots) > 0 {
					roots = p.Roots
				} else {
					roots = rrg.DefaultRoots(g)
				}
			}
			if scheds != nil {
				guidance = rrg.Generate(g, roots, scheds[0])
			} else {
				sched := ws.New(opt.Threads, opt.Stealing)
				guidance = rrg.Generate(g, roots, sched)
				sched.Close()
			}
			out.PreprocessTime = guidance.GenTime
		}
		out.Guidance = guidance
	}

	results := make([]*core.Result[V], opt.Nodes)
	errs := make([]error, opt.Nodes)
	// Transport counters are cumulative over the transport's lifetime;
	// session runs reuse transports, so report this run's delta.
	before := make([]comm.Stats, opt.Nodes)
	for i, t := range transports {
		before[i] = t.Stats()
	}
	start := time.Now()
	var wg sync.WaitGroup
	for rank := 0; rank < opt.Nodes; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			cm := comm.NewComm(transports[rank])
			if comms != nil {
				cm = comms[rank]
			}
			var sched *ws.Scheduler
			if scheds != nil {
				sched = scheds[rank]
			}
			ck := opt.Ckpt
			if opt.perRankCkpt != nil {
				ck = opt.perRankCkpt[rank]
			}
			restore := opt.restore
			if opt.restorePerRank != nil && opt.restorePerRank[rank] != nil {
				restore = opt.restorePerRank[rank]
			}
			eng, err := core.New[V](core.Config{
				Graph:            g,
				Comm:             cm,
				Part:             part,
				RR:               opt.RR,
				Guidance:         guidance,
				Threads:          opt.Threads,
				Stealing:         opt.Stealing,
				Sched:            sched,
				DenseDivisor:     opt.DenseDivisor,
				TrackLastChange:  opt.TrackLastChange,
				Codec:            opt.Codec,
				MapPush:          opt.MapPush,
				SerialSync:       opt.SerialSync,
				MeasureAllocs:    opt.MeasureAllocs,
				Rebalance:        opt.Rebalance,
				RebalanceEvery:   opt.RebalanceEvery,
				RebalanceDamping: opt.RebalanceDamping,
				Ckpt:             ck,
				Restore:          restore,
				Progress:         opt.progress,
			})
			if err != nil {
				errs[rank] = err
				comm.Abort(transports[rank])
				return
			}
			defer eng.Close()
			results[rank], errs[rank] = eng.Run(p)
			if errs[rank] != nil {
				// Unblock peers waiting on this rank's collectives.
				comm.Abort(transports[rank])
			}
		}(rank)
	}
	wg.Wait()
	out.Elapsed = time.Since(start)
	for rank, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster: worker %d: %w", rank, err)
		}
	}
	out.Result = results[0]
	out.PerWorker = make([]*metrics.Run, opt.Nodes)
	for rank, r := range results {
		out.PerWorker[rank] = r.Metrics
	}
	for i, t := range transports {
		s := t.Stats()
		out.Comm.MessagesSent += s.MessagesSent - before[i].MessagesSent
		out.Comm.BytesSent += s.BytesSent - before[i].BytesSent
	}
	return out, nil
}

// SPMD runs fn on every rank of a fresh in-process group and returns the
// first error.
func SPMD(size int, fn func(rank int, cm *comm.Comm) error) error {
	transports, err := comm.NewLocalGroup(size)
	if err != nil {
		return err
	}
	errs := make([]error, size)
	var wg sync.WaitGroup
	for rank := 0; rank < size; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer transports[rank].Close()
			errs[rank] = fn(rank, comm.NewComm(transports[rank]))
			if errs[rank] != nil {
				// Unblock peers waiting on this rank's collectives.
				comm.Abort(transports[rank])
			}
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			return fmt.Errorf("cluster: rank %d: %w", rank, err)
		}
	}
	return nil
}
