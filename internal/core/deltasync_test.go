package core

import (
	"math"
	"sync"
	"testing"

	"slfe/internal/comm"
	"slfe/internal/compress"
	"slfe/internal/graph"
	"slfe/internal/partition"
	"slfe/internal/ws"
)

// frameEngine is the minimal engine frameEncodePooled needs: a scheduler
// and a codec.
func frameEngine(sched *ws.Scheduler, codec compress.Codec) *Engine[float64] {
	return &Engine[float64]{sched: sched, codec: codec}
}

func TestFrameRoundTrip(t *testing.T) {
	sched := ws.New(4, true)
	defer sched.Close()
	serial := ws.New(1, false)
	defer serial.Close()
	for _, codec := range []compress.Codec{compress.Raw{}, compress.Adaptive{}} {
		e, e1 := frameEngine(sched, codec), frameEngine(serial, codec)
		for _, n := range []int{0, 1, frameSegEntries, frameSegEntries + 1, 3*frameSegEntries + 17} {
			ids := make([]uint32, n)
			vals := make([]uint64, n)
			for i := range ids {
				ids[i] = uint32(2 * i)
				vals[i] = math.Float64bits(float64(i % 5))
			}
			picks := make(map[string]int64)
			blob := append([]byte(nil), e.frameEncodePooled(ids, vals, picks)...)
			wantSegs := (n + frameSegEntries - 1) / frameSegEntries
			var gotSegs int64
			for _, c := range picks {
				gotSegs += c
			}
			if int(gotSegs) != wantSegs {
				t.Fatalf("%s n=%d: %d pick entries, want %d segments", codec.Name(), n, gotSegs, wantSegs)
			}
			i := 0
			err := frameDecode(codec, blob, func(id uint32, val uint64) error {
				if id != ids[i] || val != vals[i] {
					t.Fatalf("%s n=%d: entry %d = (%d,%v), want (%d,%v)", codec.Name(), n, i, id, val, ids[i], vals[i])
				}
				i++
				return nil
			})
			if err != nil {
				t.Fatalf("%s n=%d: %v", codec.Name(), n, err)
			}
			if i != n {
				t.Fatalf("%s n=%d: decoded %d entries", codec.Name(), n, i)
			}
			// One-thread encoding must produce identical bytes: the wire
			// format cannot depend on threading.
			one := e1.frameEncodePooled(ids, vals, make(map[string]int64))
			if string(one) != string(blob) {
				t.Fatalf("%s n=%d: serial and parallel frames differ", codec.Name(), n)
			}
		}
	}
}

func TestFrameDecodeRejectsCorruptFrames(t *testing.T) {
	codec := compress.Raw{}
	ids := []uint32{1, 2, 3}
	vals := []uint64{4, 5, 6}
	sched := ws.New(1, false)
	defer sched.Close()
	blob := frameEngine(sched, codec).frameEncodePooled(ids, vals, make(map[string]int64))
	nop := func(uint32, uint64) error { return nil }
	if err := frameDecode(codec, nil, nop); err == nil {
		t.Error("nil frame accepted")
	}
	for cut := 1; cut < len(blob); cut++ {
		if err := frameDecode(codec, blob[:cut], nop); err == nil {
			t.Errorf("truncation at %d/%d undetected", cut, len(blob))
		}
	}
	if err := frameDecode(codec, append(append([]byte{}, blob...), 0x1), nop); err == nil {
		t.Error("trailing bytes accepted")
	}
	if err := frameDecode(codec, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x0f}, nop); err == nil {
		t.Error("absurd segment count accepted")
	}
}

// runClusterAll executes p on a fresh in-process cluster and returns every
// worker's result.
func runClusterAll(t *testing.T, g *graph.Graph, p *Program[float64], nodes int, mutate func(rank int, cfg *Config)) []*Result[float64] {
	t.Helper()
	part, err := partition.NewChunked(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	transports, err := comm.NewLocalGroup(nodes)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*Result[float64], nodes)
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for rank := 0; rank < nodes; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer transports[rank].Close()
			cfg := Config{Graph: g, Comm: comm.NewComm(transports[rank]), Part: part}
			if mutate != nil {
				mutate(rank, &cfg)
			}
			eng, err := New[float64](cfg)
			if err != nil {
				errs[rank] = err
				comm.Abort(transports[rank])
				return
			}
			results[rank], errs[rank] = eng.Run(p)
			if errs[rank] != nil {
				comm.Abort(transports[rank])
			}
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	return results
}

func sameValues(a, b []Value) bool {
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
