// Package ooc implements an out-of-core, single-machine graph engine in
// the style of GraphChi (OSDI'12), the paper's disk-based comparison point
// (Figure 6). The graph is sharded into interval files on disk at load
// time; every iteration streams every shard back from disk (GraphChi's
// parallel-sliding-windows pass) and applies the program's gather/apply
// hooks to the interval's vertices. Vertex properties stay in memory; the
// edge I/O per iteration is real file I/O, which reproduces GraphChi's
// I/O-bound behaviour.
package ooc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"slfe/internal/core"
	"slfe/internal/graph"
	"slfe/internal/metrics"
)

// Engine is an out-of-core engine instance bound to a shard directory.
type Engine struct {
	dir       string
	n         int
	shards    int
	intervals []graph.VertexID // interval boundaries, len shards+1
	g         graph.View       // retained only for degrees in Apply
}

// shardRecord is one on-disk edge: u32 src, u32 dst, f32 weight.
const shardRecordSize = 12

// Build shards g into dir (one file per interval of destination vertices)
// and returns an Engine. shards <= 0 defaults to 8.
func Build(g graph.View, dir string, shards int) (*Engine, error) {
	if shards <= 0 {
		shards = 8
	}
	n := g.NumVertices()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := &Engine{dir: dir, n: n, shards: shards, g: g}
	e.intervals = make([]graph.VertexID, shards+1)
	for i := 0; i <= shards; i++ {
		e.intervals[i] = graph.VertexID(i * n / shards)
	}
	for s := 0; s < shards; s++ {
		f, err := os.Create(e.shardPath(s))
		if err != nil {
			return nil, err
		}
		rec := make([]byte, shardRecordSize)
		lo, hi := e.intervals[s], e.intervals[s+1]
		for dst := lo; dst < hi; dst++ {
			ins, ws := g.InNeighbors(dst), g.InWeights(dst)
			for i, src := range ins {
				binary.LittleEndian.PutUint32(rec[0:], uint32(src))
				binary.LittleEndian.PutUint32(rec[4:], uint32(dst))
				binary.LittleEndian.PutUint32(rec[8:], math.Float32bits(ws[i]))
				if _, err := f.Write(rec); err != nil {
					f.Close()
					return nil, err
				}
			}
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

func (e *Engine) shardPath(s int) string {
	return filepath.Join(e.dir, fmt.Sprintf("shard-%04d.bin", s))
}

// Result mirrors core.Result for the out-of-core engine.
type Result struct {
	Values     []core.Value
	Iterations int
	Metrics    *metrics.Run
	// BytesRead is the total shard I/O performed.
	BytesRead int64
}

// Run executes the program over the shards until convergence.
func (e *Engine) Run(p *core.Program[float64]) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	values := make([]core.Value, e.n)
	for v := 0; v < e.n; v++ {
		values[v] = p.InitValue(e.g, graph.VertexID(v))
	}
	run := &metrics.Run{}
	var bytesRead int64

	maxIters := 10*e.n + 16
	if p.Agg == core.Arith {
		maxIters = p.MaxIters
		if maxIters <= 0 {
			maxIters = 100
		}
	}
	scratch := make([]core.Value, e.n)
	acc := make([]core.Value, e.n)
	var in1 [1]graph.VertexID
	var w1 [1]float32
	iters := 0
	for iter := 0; iter < maxIters; iter++ {
		iters++
		stat := metrics.IterStat{Iter: iter, Mode: metrics.Pull, ActiveVerts: int64(e.n)}
		computeStart := time.Now()
		for v := range acc {
			acc[v] = 0
			scratch[v] = values[v]
		}
		// Stream every shard from disk (GraphChi revisits the whole graph
		// each iteration).
		buf := make([]byte, shardRecordSize*4096)
		for s := 0; s < e.shards; s++ {
			f, err := os.Open(e.shardPath(s))
			if err != nil {
				return nil, fmt.Errorf("ooc: shard %d missing (Build first?): %w", s, err)
			}
			for {
				k, err := f.Read(buf)
				bytesRead += int64(k)
				if k%shardRecordSize != 0 {
					// Partial record at the tail of this read: rewind the
					// remainder so it is re-read with the next chunk.
					rem := k % shardRecordSize
					if _, serr := f.Seek(int64(-rem), 1); serr != nil {
						f.Close()
						return nil, serr
					}
					k -= rem
					bytesRead -= int64(rem)
				}
				for off := 0; off+shardRecordSize <= k; off += shardRecordSize {
					src := graph.VertexID(binary.LittleEndian.Uint32(buf[off:]))
					dst := graph.VertexID(binary.LittleEndian.Uint32(buf[off+4:]))
					w := math.Float32frombits(binary.LittleEndian.Uint32(buf[off+8:]))
					if int(src) >= e.n || int(dst) >= e.n {
						f.Close()
						return nil, errors.New("ooc: corrupt shard record")
					}
					stat.Computations++
					if p.Agg == core.MinMax {
						cand := p.Relax(values[src], w)
						if p.Better(cand, scratch[dst]) {
							scratch[dst] = cand
						}
					} else {
						// GraphChi is edge-centric: fold one edge at a
						// time through one-element slices.
						in1[0], w1[0] = src, w
						acc[dst] = p.Gather(acc[dst], values, in1[:], w1[:])
					}
				}
				if err != nil {
					break
				}
			}
			f.Close()
		}
		var updates int64
		if p.Agg == core.Arith {
			for v := 0; v < e.n; v++ {
				nv := p.Apply(e.g, graph.VertexID(v), acc[v], values[v])
				if nv != values[v] {
					updates++
				}
				values[v] = nv
			}
		} else {
			for v := 0; v < e.n; v++ {
				if p.Better(scratch[v], values[v]) {
					values[v] = scratch[v]
					updates++
				}
			}
		}
		stat.Updates = updates
		stat.Time = time.Since(computeStart)
		run.Add(stat)
		if p.Agg == core.MinMax && updates == 0 {
			break
		}
	}
	run.Total = time.Since(start)
	return &Result{Values: values, Iterations: iters, Metrics: run, BytesRead: bytesRead}, nil
}
