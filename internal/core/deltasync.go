package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"slfe/internal/bitset"
	"slfe/internal/compress"
	"slfe/internal/graph"
	"slfe/internal/metrics"
	"slfe/internal/ws"
)

// frameSegEntries is the delta-batch segmentation granularity: batches are
// framed as independent codec segments of this many entries so the
// serialisation parallelises across the scheduler. The layout depends only
// on the batch, never on the thread count, keeping the wire format
// deterministic.
const frameSegEntries = 4096

// frameDecode walks a frameEncodePooled stream, handing each segment to the
// codec. Truncated or oversized frames are rejected before any slicing.
func frameDecode(codec compress.Codec, buf []byte, fn func(id uint32, val uint64) error) error {
	nSeg, n := binary.Uvarint(buf)
	if n <= 0 {
		return errors.New("core: bad delta frame header")
	}
	off := n
	if nSeg > uint64(len(buf)) {
		return fmt.Errorf("core: delta frame claims %d segments in %d bytes", nSeg, len(buf))
	}
	for s := uint64(0); s < nSeg; s++ {
		segLen, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return fmt.Errorf("core: truncated delta frame at segment %d", s)
		}
		off += n
		if segLen > uint64(len(buf)-off) {
			return fmt.Errorf("core: delta frame segment %d of %d bytes overruns payload", s, segLen)
		}
		if err := codec.Decode(buf[off:off+int(segLen)], fn); err != nil {
			return err
		}
		off += int(segLen)
	}
	if off != len(buf) {
		return fmt.Errorf("core: %d trailing bytes after delta frame", len(buf)-off)
	}
	return nil
}

// picks returns the run's codec-choice counter map, created on first use
// and reused for the rest of the run (incrementing an existing key does not
// allocate).
func (st *state[V]) picks() map[string]int64 {
	if st.run.CodecPicks == nil {
		st.run.CodecPicks = make(map[string]int64)
	}
	return st.run.CodecPicks
}

// frameEnc holds the engine-owned buffers of frameEncodePooled: the
// per-segment trial and output buffers, the segment-name table and the
// final frame buffer are all reused across supersteps, so delta-sync's
// serialisation is allocation-free in steady state.
type frameEnc struct {
	ids      []graph.VertexID
	vals     []uint64
	adaptive bool
	width    int
	codec    compress.Codec
	appendC  compress.AppendCodec // nil when the codec has no append form
	init     bool
	parts    [][]byte
	names    []string
	scratch  []compress.EncodeScratch
	out      []byte
	body     func(s int)
}

// frameEncodePooled serialises a delta batch of (id, wire-word) pairs as a
// framed codec stream: uvarint segment count, then per segment a uvarint
// byte length and the codec payload. Segments are encoded in parallel on
// the scheduler into engine-owned reusable buffers, and each segment's codec
// choice is counted into picks (which must not be nil; the adaptive codec
// spreads segments over its candidates). The returned blob is valid until
// the next encode; transports do not retain it past Send.
func (e *Engine[V]) frameEncodePooled(ids []graph.VertexID, vals []uint64, picks map[string]int64) []byte {
	f := &e.frame
	if !f.init {
		f.init = true
		f.codec = e.codec
		f.width = e.codec.Width()
		_, f.adaptive = e.codec.(compress.Adaptive)
		f.appendC, _ = e.codec.(compress.AppendCodec)
		f.body = e.frameSeg
	}
	nSeg := (len(ids) + frameSegEntries - 1) / frameSegEntries
	if nSeg == 0 {
		f.out = binary.AppendUvarint(f.out[:0], 0)
		return f.out
	}
	for len(f.parts) < nSeg {
		f.parts = append(f.parts, nil)
		f.names = append(f.names, "")
		f.scratch = append(f.scratch, compress.EncodeScratch{})
	}
	f.ids, f.vals = ids, vals
	if nSeg > 1 {
		e.sched.Tasks(nSeg, f.body)
	} else {
		f.body(0)
	}
	f.ids, f.vals = nil, nil
	buf := binary.AppendUvarint(f.out[:0], uint64(nSeg))
	for s := 0; s < nSeg; s++ {
		buf = binary.AppendUvarint(buf, uint64(len(f.parts[s])))
		buf = append(buf, f.parts[s]...)
		picks[f.names[s]]++
	}
	f.out = buf
	return buf
}

// frameSeg encodes one segment into its reusable buffer.
func (e *Engine[V]) frameSeg(s int) {
	f := &e.frame
	lo := s * frameSegEntries
	hi := min(lo+frameSegEntries, len(f.ids))
	ids, vals := f.ids[lo:hi], f.vals[lo:hi]
	switch {
	case f.adaptive:
		f.parts[s], f.names[s] = compress.AppendEncodeBest(f.parts[s][:0], &f.scratch[s], f.width, ids, vals)
	case f.appendC != nil:
		f.parts[s] = f.appendC.AppendEncode(f.parts[s][:0], ids, vals)
		f.names[s] = f.codec.Name()
	default:
		f.parts[s] = f.codec.Encode(ids, vals)
		f.names[s] = f.codec.Name()
	}
}

// collectOwnedChanged lists the changed owned vertices and their values —
// already packed into wire words by the domain — in ascending id order.
// Chunks of the owned range are scanned in parallel into engine-owned
// per-chunk buffers and concatenated in chunk order; all storage (including
// the returned slices) is reused by the next superstep's collection, which
// is safe because delta-sync consumes the batch before returning.
func (e *Engine[V]) collectOwnedChanged(st *state[V], changed *bitset.Atomic) ([]graph.VertexID, []uint64) {
	lo, hi := uint32(e.lo), uint32(e.hi)
	if hi <= lo {
		return nil, nil
	}
	cs := &e.collect
	nParts := int(hi-lo+ws.ChunkSize-1) / ws.ChunkSize
	for len(cs.partIDs) < nParts {
		cs.partIDs = append(cs.partIDs, nil)
		cs.partVals = append(cs.partVals, nil)
	}
	cs.lo, cs.src, cs.values = lo, changed, st.values
	e.sched.Run(lo, hi, cs.body)
	cs.src, cs.values = nil, nil
	cs.ids, cs.vals = cs.ids[:0], cs.vals[:0]
	for i := 0; i < nParts; i++ {
		cs.ids = append(cs.ids, cs.partIDs[i]...)
		cs.vals = append(cs.vals, cs.partVals[i]...)
	}
	return cs.ids, cs.vals
}

// collectChunk scans one chunk of the changed set into its per-chunk
// buffer, packing values into wire words on the way.
func (e *Engine[V]) collectChunk(clo, chi uint32, _ int) {
	cs := &e.collect
	idx := int(clo-cs.lo) / ws.ChunkSize
	ids, vals := cs.partIDs[idx][:0], cs.partVals[idx][:0]
	it := cs.src.IterIn(int(clo), int(chi))
	for i := it.Next(); i >= 0; i = it.Next() {
		ids = append(ids, graph.VertexID(i))
		vals = append(vals, e.dom.Bits(cs.values[i]))
	}
	cs.partIDs[idx], cs.partVals[idx] = ids, vals
}

// syncOwned broadcasts this worker's changed owned vertices to every rank
// (AllGather) and applies every rank's batch to values and the next
// frontier. Encoding is segmented and parallel into pooled wire buffers and
// the decode callback is pre-created, so a steady-state sync allocates
// nothing beyond what the transport itself copies.
func (e *Engine[V]) syncOwned(st *state[V], changed *bitset.Atomic, frontier *bitset.Atomic, iter int, stat *metrics.IterStat) error {
	bytes0 := e.comm.T.Stats().BytesSent
	ids, vals := e.collectOwnedChanged(st, changed)
	blob := e.frameEncodePooled(ids, vals, st.picks())
	blobs, err := e.comm.AllGather(blob)
	if err != nil {
		return err
	}
	e.decFrontier, e.decIter = frontier, iter
	for rank, b := range blobs {
		e.decRank = rank
		if err := frameDecode(e.codec, b, e.syncDecode); err != nil {
			return err
		}
	}
	e.decFrontier = nil
	stat.SyncBytes += e.comm.T.Stats().BytesSent - bytes0
	return nil
}

// applyDelta is the pre-created decode callback of syncOwned.
func (e *Engine[V]) applyDelta(id uint32, bits uint64) error {
	if int(id) >= e.g.NumVertices() {
		return fmt.Errorf("core: delta for out-of-range vertex %d", id)
	}
	if e.decRank != e.comm.Rank() {
		e.curState.values[id] = e.dom.FromBits(bits)
	}
	if e.decFrontier != nil {
		e.decFrontier.Set(int(id))
	}
	e.curState.markChanged(graph.VertexID(id), e.decIter)
	return nil
}
