package store

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"slfe/internal/gen"
	"slfe/internal/graph"
)

// oracleBlock is the reference block decoder the cursor's fast paths are
// checked against: one binary.Uvarint per neighbour id, per-edge bounds
// checks, and eager weight decode. It reads block b of direction d
// straight out of the file image, so it shares nothing with the cursor but
// the offset index. It returns the block's first edge offset and its
// decoded ids and weights.
func oracleBlock(g *Graph, img []byte, d *dirRef, b int64) (int64, []graph.VertexID, []float32) {
	start := b << g.shift
	end := start + int64(1)<<g.shift
	if end > int64(g.n) {
		end = int64(g.n)
	}
	e0, e1 := g.edgeOff(d, start), g.edgeOff(d, end)
	cnt := e1 - e0
	if cnt < 0 {
		cnt = 0
	}
	o0, o1 := g.blockOff(d, b), g.blockOff(d, b+1)
	raw := img[d.adjPos+o0 : d.adjPos+o1]
	if cnt > int64(len(raw)) {
		cnt = int64(len(raw))
	}
	ids := make([]graph.VertexID, cnt)
	pos := 0
	idx := int64(0)
decode:
	for v := start; v < end && idx < cnt; v++ {
		deg := g.edgeOff(d, v+1) - g.edgeOff(d, v)
		var prev uint64
		for j := int64(0); j < deg; j++ {
			x, k := binary.Uvarint(raw[pos:])
			if k <= 0 {
				break decode
			}
			pos += k
			if j == 0 {
				prev = x
			} else {
				prev += x
			}
			id := prev
			if id >= uint64(g.n) {
				id = 0
			}
			if idx >= cnt {
				break decode
			}
			ids[idx] = graph.VertexID(id)
			idx++
		}
	}

	ws := make([]float32, cnt)
	switch d.wmode {
	case WConst1:
		for i := range ws {
			ws[i] = 1
		}
	case WRaw:
		o0 := min(max(4*e0, 0), d.wLen)
		o1 := min(o0+4*cnt, d.wLen)
		raw := img[d.wPos+o0 : d.wPos+o1]
		for i := range ws {
			if 4*i+4 <= len(raw) {
				ws[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
			} else {
				ws[i] = 1
			}
		}
	case WVarint:
		raw := img[d.wPos+g.wBlockOff(d, b) : d.wPos+g.wBlockOff(d, b+1)]
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
	return e0, ids, ws
}

// openModes opens img twice: sliced in memory (the mmap decode path) and
// through a pread reader (the out-of-core decode path).
func openModes(t *testing.T, img []byte) map[string]*Graph {
	t.Helper()
	mm, err := OpenBytes(img)
	if err != nil {
		t.Fatalf("OpenBytes: %v", err)
	}
	rd, err := parse(nil, bytes.NewReader(img), int64(len(img)))
	if err != nil {
		t.Fatalf("reader parse: %v", err)
	}
	return map[string]*Graph{"mmap": mm, "reader": rd}
}

// checkOracle compares every block of both directions, as the cursor
// decodes it, with oracleBlock. Blocks are visited forwards with the
// weights of odd blocks left undecoded, then again in reverse.
func checkOracle(t *testing.T, img []byte) {
	t.Helper()
	for mode, g := range openModes(t, img) {
		c := g.newCursor()
		nb := g.numBlocks()
		for pass := 0; pass < 2; pass++ {
			for i := int64(0); i < nb; i++ {
				b := i
				if pass == 1 {
					b = nb - 1 - i
				}
				for _, dir := range []struct {
					name string
					d    *dirRef
					dc   *dirCur
					ids  func(graph.VertexID) []graph.VertexID
					ws   func(graph.VertexID) []float32
				}{
					{"out", &g.out, &c.out, c.OutNeighbors, c.OutWeights},
					{"in", &g.in, &c.in, c.InNeighbors, c.InWeights},
				} {
					v := graph.VertexID(b << g.shift)
					base, wantIDs, wantWs := oracleBlock(g, img, dir.d, b)
					dir.ids(v)
					if dir.dc.base != base || dir.dc.cnt != int64(len(wantIDs)) {
						t.Fatalf("%s %s block %d: base/cnt %d/%d, oracle %d/%d",
							mode, dir.name, b, dir.dc.base, dir.dc.cnt, base, len(wantIDs))
					}
					for k, id := range dir.dc.ids[:dir.dc.cnt] {
						if id != wantIDs[k] {
							t.Fatalf("%s %s block %d edge %d: id %d, oracle %d", mode, dir.name, b, k, id, wantIDs[k])
						}
					}
					if pass == 0 && b%2 == 1 {
						continue
					}
					dir.ws(v)
					for k, w := range dir.dc.ws[:dir.dc.cnt] {
						if math.Float32bits(w) != math.Float32bits(wantWs[k]) {
							t.Fatalf("%s %s block %d edge %d: weight %v, oracle %v", mode, dir.name, b, k, w, wantWs[k])
						}
					}
				}
			}
		}
	}
}

// TestCursorMatchesOracle runs the oracle over writer-produced graphs in
// every weight encoding, including varint weights wider than one byte.
func TestCursorMatchesOracle(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"const1":     gen.RMAT(700, 6000, gen.DefaultRMAT, 1, 3),
		"varint1B":   gen.RMAT(700, 6000, gen.DefaultRMAT, 100, 5),
		"varintWide": gen.RMAT(700, 6000, gen.DefaultRMAT, 100000, 7),
		"rawf32":     fracWeights(gen.RMAT(700, 6000, gen.DefaultRMAT, 64, 9)),
		"edgeless":   graph.MustBuild(130, nil),
	} {
		t.Run(name, func(t *testing.T) { checkOracle(t, imageOf(t, g)) })
	}
}

// handImage assembles an SLFC image whose two directions share the same
// hand-written sections: degs gives the degrees of the first vertices (the
// rest have none), blocks the adjacency bytes of the first blocks, and
// wblocks, when non-nil, varint weight bytes per block (const-1 weights
// otherwise). The adjacency section is padded so it can hold m edges.
func handImage(n int, degs []int64, blocks, wblocks [][]byte) []byte {
	const shift = BlockShift
	nb := (int64(n) + 1<<shift - 1) >> shift
	off := make([]byte, 4*(n+1))
	var m int64
	for v := 0; v < n; v++ {
		if v < len(degs) {
			m += degs[v]
		}
		binary.LittleEndian.PutUint32(off[4*(v+1):], uint32(m))
	}
	table := func(parts [][]byte) (tbl, data []byte) {
		tbl = make([]byte, 8*(nb+1))
		for b := int64(0); b < nb; b++ {
			if b < int64(len(parts)) {
				data = append(data, parts[b]...)
			}
			binary.LittleEndian.PutUint64(tbl[8*(b+1):], uint64(len(data)))
		}
		return tbl, data
	}
	blk, adj := table(blocks)
	for int64(len(adj)) < m {
		adj = append(adj, 0)
	}
	var wbk, w []byte
	wmode := WConst1
	if wblocks != nil {
		wmode = WVarint
		wbk, w = table(wblocks)
		for int64(len(w)) < m {
			w = append(w, 0)
		}
	}
	secs := [sectionLens][]byte{off, blk, adj, wbk, w, off, blk, adj, wbk, w}
	img := make([]byte, headerSize)
	copy(img, Magic)
	binary.LittleEndian.PutUint32(img[4:], Version)
	binary.LittleEndian.PutUint64(img[8:], uint64(n))
	binary.LittleEndian.PutUint64(img[16:], uint64(m))
	img[28], img[29], img[30] = shift, wmode, wmode
	for i, s := range secs {
		binary.LittleEndian.PutUint64(img[32+8*i:], uint64(len(s)))
		for len(img)%8 != 0 {
			img = append(img, 0)
		}
		img = append(img, s...)
	}
	for len(img)%8 != 0 {
		img = append(img, 0)
	}
	return img
}

// TestCursorHandBlocks drives hand-encoded varints through the oracle
// comparison: every length the fast paths branch on, non-canonical
// encodings, truncation at the block end, overflow and out-of-range ids.
func TestCursorHandBlocks(t *testing.T) {
	const n = 1 << 17 // room for 3-byte ids
	cases := []struct {
		name    string
		degs    []int64
		blocks  [][]byte
		wblocks [][]byte
		want    []graph.VertexID // block 0's ids as the oracle must decode them
	}{
		{
			name: "gap widths 1,2,3,5",
			degs: []int64{5},
			blocks: [][]byte{{
				0x05,       // 5
				0x81, 0x01, // +129
				0x80, 0x80, 0x02, // +32768
				0x81, 0x80, 0x80, 0x80, 0x00, // +1, padded to 5 bytes
				0x00, // +0
			}},
			want: []graph.VertexID{5, 134, 32902, 32903, 32903},
		},
		{
			name:   "non-canonical zero",
			degs:   []int64{3},
			blocks: [][]byte{{0x80, 0x00, 0x07, 0x80, 0x00}},
			want:   []graph.VertexID{0, 7, 7},
		},
		{
			name:   "varint truncated at block end",
			degs:   append(append([]int64{2}, make([]int64, 63)...), 1),
			blocks: [][]byte{{0x09, 0x81}, {0x01}}, // block 1's byte would complete the varint
			want:   []graph.VertexID{9, 0},
		},
		{
			name:   "10-byte overflow",
			degs:   []int64{3},
			blocks: [][]byte{{0x03, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 0x01}},
			want:   []graph.VertexID{3, 0, 0},
		},
		{
			name:   "gap past n",
			degs:   []int64{3},
			blocks: [][]byte{{0x10, 0xff, 0xff, 0x7f, 0x01}}, // 16, +2097151 (>= n), +1
			want:   []graph.VertexID{16, 0, 0},
		},
		{
			name:   "gap landing exactly at n",
			degs:   []int64{2},
			blocks: [][]byte{{0xff, 0xff, 0x07, 0x01}}, // n-1, +1
			want:   []graph.VertexID{n - 1, 0},
		},
		{
			name:   "5-byte id past n",
			degs:   []int64{1, 1},
			blocks: [][]byte{{0x80, 0x80, 0x80, 0x80, 0x01, 0x04}}, // 1<<28, then 4
			want:   []graph.VertexID{0, 4},
		},
		{
			name:    "single-byte weights",
			degs:    []int64{3},
			blocks:  [][]byte{{0x01, 0x01, 0x01}},
			wblocks: [][]byte{{0x00, 0x7f, 0x05}},
		},
		{
			name:    "one-byte-per-edge weights with a continuation bit",
			degs:    []int64{3},
			blocks:  [][]byte{{0x01, 0x01, 0x01}},
			wblocks: [][]byte{{0x85, 0x01, 0x02}},
		},
		{
			name:    "weight past u32 and truncated",
			degs:    []int64{3},
			blocks:  [][]byte{{0x01, 0x01, 0x01}},
			wblocks: [][]byte{{0x03, 0xff, 0xff, 0xff, 0xff, 0x7f}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := handImage(n, tc.degs, tc.blocks, tc.wblocks)
			checkOracle(t, img)
			if tc.want == nil {
				return
			}
			g, err := OpenBytes(img)
			if err != nil {
				t.Fatal(err)
			}
			_, got, _ := oracleBlock(g, img, &g.out, 0)
			if len(got) != len(tc.want) {
				t.Fatalf("oracle decoded %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("oracle decoded %v, want %v", got, tc.want)
				}
			}
		})
	}
}

// windowGraph is large enough that each adjacency section spans several
// read windows, with one 64-vertex block (vertices 320..383) whose
// adjacency and weight bytes each outgrow a whole window.
func windowGraph() *graph.Graph {
	const n = 40000
	g := gen.RMAT(n, 150000, gen.DefaultRMAT, 300, 41)
	edges := g.Edges(nil)
	rng := rand.New(rand.NewSource(43))
	for v := 320; v < 384; v++ {
		for _, u := range rng.Perm(n)[:1500] {
			edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(u), Weight: float32(1 + rng.Intn(300))})
		}
	}
	return graph.MustBuild(n, edges)
}

// countingReader counts preads landing in each direction's adjacency and
// weight sections.
type countingReader struct {
	r                io.ReaderAt
	adjSec, wSec     [][2]int64 // [pos, pos+len) per direction
	adjReads, wReads int
}

func (c *countingReader) ReadAt(p []byte, off int64) (int, error) {
	for i := range c.adjSec {
		if off >= c.adjSec[i][0] && off < c.adjSec[i][1] {
			c.adjReads++
		}
		if off >= c.wSec[i][0] && off < c.wSec[i][1] {
			c.wReads++
		}
	}
	return c.r.ReadAt(p, off)
}

// TestReaderWindow drives one reader-mode cursor over a graph spanning
// several read windows in every access order the engine can produce, and
// pins the number of preads a topology-only scan issues.
func TestReaderWindow(t *testing.T) {
	heap := windowGraph()
	img := imageOf(t, heap)
	cr := &countingReader{r: bytes.NewReader(img)}
	g, err := parse(nil, cr, int64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	if g.out.wmode != WVarint || g.out.adjLen < 3*windowSize {
		t.Fatalf("want varint weights over >= 3 windows, got mode %d and %d adjacency bytes", g.out.wmode, g.out.adjLen)
	}
	for _, d := range []*dirRef{&g.out, &g.in} {
		cr.adjSec = append(cr.adjSec, [2]int64{d.adjPos, d.adjPos + d.adjLen})
		cr.wSec = append(cr.wSec, [2]int64{d.wPos, d.wPos + d.wLen})
	}

	// Topology-only sequential scan: the guidance generator's access
	// pattern.
	cr.adjReads, cr.wReads = 0, 0
	c := g.newCursor()
	for v := 0; v < g.n; v++ {
		id := graph.VertexID(v)
		checkIDs(t, v, "out", c.OutNeighbors(id), heap.OutNeighbors(id))
	}
	if limit := (g.out.adjLen+windowSize-1)/windowSize + 1; int64(cr.adjReads) > limit {
		t.Fatalf("sequential scan issued %d adjacency reads, want <= %d", cr.adjReads, limit)
	}
	if cr.wReads != 0 {
		t.Fatalf("neighbours-only scan issued %d weight reads, want 0", cr.wReads)
	}
	// A backward scan refills the window ending at the requested block,
	// so it costs no more reads than a forward one.
	cr.adjReads = 0
	c = g.newCursor()
	for v := g.n - 1; v >= 0; v-- {
		id := graph.VertexID(v)
		checkIDs(t, v, "out", c.OutNeighbors(id), heap.OutNeighbors(id))
	}
	if limit := (g.out.adjLen+windowSize-1)/windowSize + 1; int64(cr.adjReads) > limit {
		t.Fatalf("backward scan issued %d adjacency reads, want <= %d", cr.adjReads, limit)
	}

	nb := int(g.numBlocks())
	visit := func(b int) {
		for v := b << g.shift; v < min((b+1)<<g.shift, g.n); v++ {
			id := graph.VertexID(v)
			checkAdj(t, v, "out", c.OutNeighbors(id), c.OutWeights(id), heap.OutNeighbors(id), heap.OutWeights(id))
			checkAdj(t, v, "in", c.InNeighbors(id), c.InWeights(id), heap.InNeighbors(id), heap.InWeights(id))
		}
	}
	rng := rand.New(rand.NewSource(47))
	for b := 0; b < nb; b++ {
		visit(b)
	}
	for b := nb - 1; b >= 0; b-- {
		visit(b)
	}
	for _, b := range rng.Perm(nb) {
		visit(b)
	}

	// Interleave ids and weights of different blocks and directions, so a
	// weight request often lands on a block other than the one whose
	// weights were decoded last.
	for i := 0; i < 20000; i++ {
		id := graph.VertexID(rng.Intn(g.n))
		switch rng.Intn(4) {
		case 0:
			checkIDs(t, int(id), "out", c.OutNeighbors(id), heap.OutNeighbors(id))
		case 1:
			checkWs(t, int(id), "out", c.OutWeights(id), heap.OutWeights(id))
		case 2:
			checkIDs(t, int(id), "in", c.InNeighbors(id), heap.InNeighbors(id))
		case 3:
			checkWs(t, int(id), "in", c.InWeights(id), heap.InWeights(id))
		}
	}

	// Scratch growth between a block's ids and its weights: decode a
	// small block's weights, then the oversized block's ids, then its
	// weights, each on a fresh cursor whose scratch has never seen it.
	c = g.newCursor()
	small, hub := graph.VertexID(g.n-1), graph.VertexID(320)
	checkWs(t, int(small), "out", c.OutWeights(small), heap.OutWeights(small))
	checkIDs(t, int(hub), "out", c.OutNeighbors(hub), heap.OutNeighbors(hub))
	if int64(len(c.out.adj.buf)) <= windowSize {
		t.Fatalf("oversized block did not grow the read window (%d bytes)", len(c.out.adj.buf))
	}
	checkWs(t, int(hub), "out", c.OutWeights(hub), heap.OutWeights(hub))
	checkIDs(t, int(hub), "out", c.OutNeighbors(hub), heap.OutNeighbors(hub))
	checkIDs(t, int(small), "out", c.OutNeighbors(small), heap.OutNeighbors(small))
}

func checkIDs(t *testing.T, v int, dir string, got, want []graph.VertexID) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("vertex %d %s: ids %v, want %v", v, dir, got, want)
	}
}

func checkWs(t *testing.T, v int, dir string, got, want []float32) {
	t.Helper()
	if !sameWs(got, want) {
		t.Fatalf("vertex %d %s: weights %v, want %v", v, dir, got, want)
	}
}

// BenchmarkCursorScan measures a full sequential scan through one cursor
// in the two access patterns the engine produces: PageRank's pull (in
// neighbours with weights) and guidance generation (out neighbours only),
// over the mmap'd file and out of core.
func BenchmarkCursorScan(b *testing.B) {
	g := gen.RMAT(1<<16, 1<<20, gen.DefaultRMAT, 64, 1)
	p := filepath.Join(b.TempDir(), "g.slfc")
	if err := Write(p, g); err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name   string
		budget int64
	}{{"mmap", 0}, {"ooc", 1}} {
		sg, err := OpenBudget(p, mode.budget)
		if err != nil {
			b.Fatal(err)
		}
		defer sg.Close()
		for _, scan := range []struct {
			name string
			fn   func(c graph.Cursor, v graph.VertexID) int
		}{
			{"pull", func(c graph.Cursor, v graph.VertexID) int { return len(c.InNeighbors(v)) + len(c.InWeights(v)) }},
			{"topology", func(c graph.Cursor, v graph.VertexID) int { return len(c.OutNeighbors(v)) }},
		} {
			b.Run(mode.name+"/"+scan.name, func(b *testing.B) {
				var sink int
				for b.Loop() {
					c := sg.Cursor()
					for v := 0; v < sg.NumVertices(); v++ {
						sink += scan.fn(c, graph.VertexID(v))
					}
				}
				b.ReportMetric(float64(sg.NumEdges())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Medges/s")
				_ = sink
			})
		}
	}
}
