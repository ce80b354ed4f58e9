package ckpt_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"

	"slfe/internal/apps"
	"slfe/internal/ckpt"
	"slfe/internal/cluster"
	"slfe/internal/gen"
)

// engineShards returns Encode's bytes of shards the engine wrote for a
// min/max (SSSP) and an arith (PageRank) run, each in a width-8 (f64) and
// a width-4 (f32) domain, with RR on so the min/max shards carry their
// caught-up and debt sets.
func engineShards(tb testing.TB) [][]byte {
	tb.Helper()
	g := gen.RMAT(128, 1024, gen.DefaultRMAT, 8, 7)
	var out [][]byte
	for _, app := range []string{"sssp", "pr"} {
		for _, domain := range []string{"f64", "f32"} {
			entry, ok := apps.LookupRunnable(app, domain)
			if !ok {
				tb.Fatalf("no runnable %s/%s", app, domain)
			}
			m := &ckpt.Manager{Dir: tb.TempDir(), Every: 2}
			if _, err := entry.Build(0, 6).Execute(g, cluster.Options{Nodes: 2, RR: true, Ckpt: m}); err != nil {
				tb.Fatalf("%s/%s: %v", app, domain, err)
			}
			stored, err := m.States()
			if err != nil || len(stored) == 0 {
				tb.Fatalf("%s/%s: no shard written (%v)", app, domain, err)
			}
			blob, err := stored[0].State.Encode()
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, blob)
		}
	}
	return out
}

// reseal appends body's CRC, so a mutated body passes the checksum and
// reaches the structural decoder.
func reseal(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
}

// FuzzReadState: ReadState must reject or accept any input without
// panicking, allocate at most a small multiple of the input's size, and
// whatever current-version shard it accepts must re-encode to the same
// bytes. With resealed set, data is a shard body whose CRC is recomputed
// before decoding.
func FuzzReadState(f *testing.F) {
	for _, blob := range engineShards(f) {
		body := blob[:len(blob)-4]
		f.Add(blob, false)
		f.Add(body, true)
		f.Add(body[:len(body)/2], true)
		f.Add(body[:11], true) // cut inside the program-name header
	}
	// A string header claiming 64 KiB, then 5 bytes: must fail without
	// allocating the claim.
	claim := binary.LittleEndian.AppendUint32([]byte("SLCK\x03\x00"), 1<<16)
	f.Add(append(claim, "short"...), true)
	f.Fuzz(func(t *testing.T, data []byte, resealed bool) {
		if resealed {
			data = reseal(data)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := ckpt.ReadState(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(8*len(data)+8192); got > bound {
			t.Fatalf("decoding %d bytes allocated %d, want <= %d", len(data), got, bound)
		}
		if err != nil || binary.LittleEndian.Uint16(data[4:]) != 3 {
			return
		}
		again, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("accepted shard re-encodes differently")
		}
	})
}
