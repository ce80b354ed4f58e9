package store

import (
	"encoding/binary"
	"math"

	"slfe/internal/graph"
)

// Cursor decodes adjacency blocks into its own reusable scratch, caching
// the most recent block per direction. The engine's chunk size (256
// vertices) spans four 64-vertex blocks, so sequential chunk scans decode
// each block exactly once; steady state performs zero allocations.
//
// Neighbour ids are decoded when a block is first touched; its weights are
// decoded only when Out/InWeights asks for them, so topology-only scans
// (guidance generation, frontier routing) never pay for the weight
// section. In reader (out-of-core) mode each direction keeps
// one fixed-size read window per section (adjacency and weights): a block
// already inside the window is sliced from it, otherwise the window is
// refilled with one pread of windowSize bytes, clamped to the section end.
// Scratch is therefore bounded by the largest block plus one window per
// section; nothing beyond the offset index and block tables stays
// resident. Cursors are single-goroutine; take one per thread via
// (*Graph).Cursor.
type Cursor struct {
	g       *Graph
	out, in dirCur
}

// windowSize is the pread length of a read-window refill: a few dozen
// typical blocks per syscall.
const windowSize = 64 << 10

type dirCur struct {
	block int64   // decoded block index, -1 when empty
	wblk  int64   // block whose weights are in ws, -1 when none
	base  int64   // edge offset of the block's first edge
	cnt   int64   // edges decoded in the block
	offs  []int64 // the block's edge offsets, one per vertex plus one
	ids   []graph.VertexID
	ws    []float32
	adj   window // adjacency bytes (reader mode)
	w     window // weight bytes (reader mode)
}

// window caches a contiguous run of one file section in reader mode.
type window struct {
	buf []byte // section bytes [off, off+len(buf))
	off int64
}

// Cursor returns an independent adjacency reader (graph.View).
func (g *Graph) Cursor() graph.Cursor { return g.newCursor() }

func (g *Graph) newCursor() *Cursor {
	c := &Cursor{g: g}
	c.out.block, c.in.block = -1, -1
	c.out.wblk, c.in.wblk = -1, -1
	return c
}

// OutNeighbors returns v's out-neighbours; the slice aliases cursor
// scratch and is valid until the next out-adjacency call on this cursor.
func (c *Cursor) OutNeighbors(v graph.VertexID) []graph.VertexID {
	lo, hi := c.span(&c.g.out, &c.out, v)
	return c.out.ids[lo:hi]
}

// OutWeights returns the weights parallel to OutNeighbors.
func (c *Cursor) OutWeights(v graph.VertexID) []float32 {
	lo, hi := c.span(&c.g.out, &c.out, v)
	c.weights(&c.g.out, &c.out)
	return c.out.ws[lo:hi]
}

// InNeighbors returns v's in-neighbours (CSC direction).
func (c *Cursor) InNeighbors(v graph.VertexID) []graph.VertexID {
	lo, hi := c.span(&c.g.in, &c.in, v)
	return c.in.ids[lo:hi]
}

// InWeights returns the weights parallel to InNeighbors.
func (c *Cursor) InWeights(v graph.VertexID) []float32 {
	lo, hi := c.span(&c.g.in, &c.in, v)
	c.weights(&c.g.in, &c.in)
	return c.in.ws[lo:hi]
}

// span ensures v's block is decoded and returns v's scratch-relative edge
// range, clamped so corrupt indexes degrade to empty/garbage adjacency
// rather than a panic (Open/Validate report corruption; the cursor only
// has to stay memory-safe).
func (c *Cursor) span(d *dirRef, dc *dirCur, v graph.VertexID) (int64, int64) {
	g := c.g
	if int(v) >= g.n {
		return 0, 0
	}
	b := int64(v) >> g.shift
	if dc.block != b {
		c.load(d, dc, b)
	}
	i := int64(v) - b<<g.shift
	lo := clamp(dc.offs[i]-dc.base, 0, dc.cnt)
	hi := clamp(dc.offs[i+1]-dc.base, lo, dc.cnt)
	return lo, hi
}

// clamp limits x to [lo, hi] (lo <= hi).
func clamp(x, lo, hi int64) int64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// section returns section bytes [o0, o1) (0 <= o0 <= o1 <= secLen): a
// subslice of the mapping, or of w after refilling it from the file when
// the range is not already inside it. A failed read yields fewer bytes,
// which decode treats as truncation.
func (g *Graph) section(mapped []byte, w *window, pos, secLen, o0, o1 int64) []byte {
	if g.data != nil {
		return mapped[o0:o1]
	}
	if o0 == o1 {
		return nil
	}
	if o0 < w.off || o1 > w.off+int64(len(w.buf)) {
		size := max(o1-o0, windowSize)
		start := o0
		if o0 < w.off {
			// Behind the window: end the refill at o1 so a backward
			// scan keeps hitting it.
			start = max(o1-size, 0)
		}
		size = min(size, secLen-start)
		if int64(cap(w.buf)) < size {
			w.buf = make([]byte, size)
		}
		k, _ := g.r.ReadAt(w.buf[:size], pos+start)
		w.buf, w.off = w.buf[:k], start
		if o1 > start+int64(k) {
			o1 = max(start+int64(k), o0)
		}
	}
	return w.buf[o0-w.off : o1-w.off]
}

// load decodes block b's neighbour ids into dc's scratch; weights wait for
// the first Weights call (see weights).
func (c *Cursor) load(d *dirRef, dc *dirCur, b int64) {
	g := c.g
	start := b << g.shift
	end := min(start+int64(1)<<g.shift, int64(g.n))
	dc.offs = g.edgeOffs(d, start, end, dc.offs)
	offs := dc.offs
	e0 := offs[0]
	raw := g.section(d.adj, &dc.adj, d.adjPos, d.adjLen, g.blockOff(d, b), g.blockOff(d, b+1))
	// Every edge costs at least one varint byte, so a block claiming more
	// edges than it has bytes is corrupt; clamping here bounds scratch by
	// the (already size-checked) section length.
	cnt := clamp(offs[len(offs)-1]-e0, 0, int64(len(raw)))
	dc.block, dc.base, dc.cnt = b, e0, cnt
	dc.ids = growIDs(dc.ids, cnt)
	ids := dc.ids[:cnt]

	n := uint64(g.n)
	pos, idx := 0, int64(0)
decode:
	for j := 1; j < len(offs) && idx < cnt; j++ {
		deg := min(offs[j]-offs[j-1], cnt-idx)
		if deg <= 0 {
			continue
		}
		out := ids[idx : idx+deg]
		var prev uint64 // first id, then running sum of gaps
		for i := range out {
			// Inline 1- to 3-byte varints cover almost every gap and
			// first id.
			var x uint64
			if pos < len(raw) && raw[pos] < 0x80 {
				x = uint64(raw[pos])
				pos++
			} else if pos+1 < len(raw) && raw[pos+1] < 0x80 {
				x = uint64(raw[pos]&0x7f) | uint64(raw[pos+1])<<7
				pos += 2
			} else if pos+2 < len(raw) && raw[pos+2] < 0x80 {
				x = uint64(raw[pos]&0x7f) | uint64(raw[pos+1]&0x7f)<<7 | uint64(raw[pos+2])<<14
				pos += 3
			} else {
				var k int
				x, k = binary.Uvarint(raw[pos:])
				if k <= 0 {
					idx += int64(i)
					break decode
				}
				pos += k
			}
			prev += x
			id := prev
			if id >= n {
				id = 0 // corrupt gap: stay in-range, Validate() reports it
			}
			out[i] = graph.VertexID(id)
		}
		idx += deg
	}
	clear(ids[idx:])
}

// weights decodes the current block's weights into dc.ws unless they are
// already there.
func (c *Cursor) weights(d *dirRef, dc *dirCur) {
	if dc.wblk == dc.block {
		return
	}
	dc.wblk = dc.block
	g := c.g
	cnt := dc.cnt
	dc.ws = growF32(dc.ws, cnt)
	ws := dc.ws[:cnt]
	switch d.wmode {
	case WConst1:
		for i := range ws {
			ws[i] = 1
		}
	case WRaw:
		o0 := clamp(4*dc.base, 0, d.wLen)
		o1 := clamp(o0+4*cnt, o0, d.wLen)
		raw := g.section(d.w, &dc.w, d.wPos, d.wLen, o0, o1)
		for i := range ws {
			if 4*i+4 <= len(raw) {
				ws[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
			} else {
				ws[i] = 1
			}
		}
	case WVarint:
		raw := g.section(d.w, &dc.w, d.wPos, d.wLen, g.wBlockOff(d, dc.block), g.wBlockOff(d, dc.block+1))
		if int64(len(raw)) == cnt {
			// One byte per edge: every weight is below 128 unless some
			// byte has its continuation bit set.
			var hi byte
			for i, x := range raw {
				hi |= x
				ws[i] = float32(x)
			}
			if hi < 0x80 {
				return
			}
		}
		pos := 0
		for i := range ws {
			x, k := binary.Uvarint(raw[pos:])
			if k <= 0 || x > (1<<32)-1 {
				ws[i] = 1
				continue
			}
			pos += k
			ws[i] = float32(uint32(x))
		}
	}
}

func growBytes(b []byte, n int64) []byte {
	if int64(cap(b)) < n {
		return make([]byte, n)
	}
	return b[:n]
}

func growIDs(b []graph.VertexID, n int64) []graph.VertexID {
	if int64(cap(b)) < n {
		return make([]graph.VertexID, n)
	}
	return b[:n]
}

func growF32(b []float32, n int64) []float32 {
	if int64(cap(b)) < n {
		return make([]float32, n)
	}
	return b[:n]
}

// Validate decodes every block of both directions and re-checks the whole
// offset index, returning an ErrBadFormat-wrapped error on the first
// defect: non-monotone edge offsets, varint decode running past its block,
// or neighbour ids out of range. Open only checks
// structure (O(nBlocks)); Validate is the deep O(m) check used by the
// fuzzer, corruption tests and `slfe-convert -check`.
func (g *Graph) Validate() error {
	for _, s := range []struct {
		name string
		d    *dirRef
	}{{"out", &g.out}, {"in", &g.in}} {
		prev := int64(0)
		for v := int64(0); v <= int64(g.n); v++ {
			o := g.edgeOff(s.d, v)
			if o < prev {
				return badf("%s edge-offset index not monotone at vertex %d (%d < %d)", s.name, v, o, prev)
			}
			prev = o
		}
		if err := g.validateDir(s.name, s.d); err != nil {
			return err
		}
	}
	return nil
}

func (g *Graph) validateDir(name string, d *dirRef) error {
	nb := g.numBlocks()
	var buf, wb []byte
	for b := int64(0); b < nb; b++ {
		start := b << g.shift
		end := start + int64(1)<<g.shift
		if end > int64(g.n) {
			end = int64(g.n)
		}
		o0, o1 := g.blockOff(d, b), g.blockOff(d, b+1)
		var raw []byte
		if g.data != nil {
			raw = d.adj[o0:o1]
		} else {
			buf = growBytes(buf, o1-o0)
			raw = buf[:o1-o0]
			if _, err := g.r.ReadAt(raw, d.adjPos+o0); err != nil {
				return badf("%s block %d: read: %v", name, b, err)
			}
		}
		pos := 0
		edges := int64(0)
		for v := start; v < end; v++ {
			deg := g.edgeOff(d, v+1) - g.edgeOff(d, v)
			var prev uint64
			for j := int64(0); j < deg; j++ {
				x, k := binary.Uvarint(raw[pos:])
				if k <= 0 {
					return badf("%s block %d: varint truncated at vertex %d edge %d", name, b, v, j)
				}
				pos += k
				if j == 0 {
					prev = x
				} else {
					prev += x
				}
				if prev >= uint64(g.n) {
					return badf("%s block %d: vertex %d has neighbour %d out of range [0,%d)", name, b, v, prev, g.n)
				}
				edges++
			}
		}
		if int64(pos) != o1-o0 {
			return badf("%s block %d: %d trailing bytes after %d edges", name, b, o1-o0-int64(pos), edges)
		}
		if d.wmode == WVarint {
			w0, w1 := g.wBlockOff(d, b), g.wBlockOff(d, b+1)
			var wraw []byte
			if g.data != nil {
				wraw = d.w[w0:w1]
			} else {
				wb = growBytes(wb, w1-w0)
				wraw = wb[:w1-w0]
				if _, err := g.r.ReadAt(wraw, d.wPos+w0); err != nil {
					return badf("%s weight block %d: read: %v", name, b, err)
				}
			}
			pos := 0
			for e := int64(0); e < edges; e++ {
				x, k := binary.Uvarint(wraw[pos:])
				if k <= 0 {
					return badf("%s weight block %d: varint truncated at edge %d", name, b, e)
				}
				if x > (1<<32)-1 {
					return badf("%s weight block %d: weight %d exceeds u32", name, b, x)
				}
				pos += k
			}
			if int64(pos) != w1-w0 {
				return badf("%s weight block %d: %d trailing bytes", name, b, w1-w0-int64(pos))
			}
		}
	}
	return nil
}
