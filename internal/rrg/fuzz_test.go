package rrg

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"slfe/internal/gen"
)

// serialised returns WriteTo's bytes for the guidance of an RMAT graph.
func serialised(tb testing.TB, n int, m int64, seed int64) []byte {
	tb.Helper()
	g := gen.RMAT(n, m, gen.DefaultRMAT, 1, seed)
	var buf bytes.Buffer
	if _, err := Generate(g, DefaultRoots(g), nil).WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// claimHeader is a bare header claiming n vertices.
func claimHeader(n uint32) []byte {
	hdr := []byte(guidanceMagic + "\x00\x00\x00\x00\x00\x00\x00\x00")
	binary.LittleEndian.PutUint32(hdr[4:], n)
	return hdr
}

// FuzzReadGuidance: ReadGuidance must reject or accept without panicking,
// and whatever it accepts must re-serialise to the bytes it consumed.
func FuzzReadGuidance(f *testing.F) {
	full := serialised(f, 300, 2000, 3)
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add(full[:11])
	f.Add(serialised(f, 0, 0, 1))
	f.Add(serialised(f, 20000, 60000, 5)) // arrays span several read batches
	f.Add(claimHeader(1 << 26))
	f.Fuzz(func(t *testing.T, data []byte) {
		gd, err := ReadGuidance(bytes.NewReader(data))
		if err != nil {
			return
		}
		n := int(binary.LittleEndian.Uint32(data[4:]))
		if len(gd.LastIter) != n || len(gd.Level) != n {
			t.Fatalf("header claims %d vertices, decoded %d/%d", n, len(gd.LastIter), len(gd.Level))
		}
		var maxLast uint32
		for _, l := range gd.LastIter {
			maxLast = max(maxLast, l)
		}
		if gd.MaxLastIter != maxLast {
			t.Fatalf("MaxLastIter %d, want %d", gd.MaxLastIter, maxLast)
		}
		var buf bytes.Buffer
		if _, err := gd.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data[:12+8*n]) {
			t.Fatal("re-serialised guidance differs from the bytes read")
		}
	})
}

// TestReadGuidanceAllocationBound: a header claiming 2^26 vertices must
// fail on truncation having allocated in proportion to the bytes present.
func TestReadGuidanceAllocationBound(t *testing.T) {
	const claim = 1 << 26 // 512 MiB of arrays if trusted
	for _, tc := range []struct {
		name  string
		body  int // payload bytes after the header
		bound uint64
	}{
		{"header only", 0, 1 << 20},
		{"1 MiB of payload", 1 << 20, 8 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := append(claimHeader(claim), make([]byte, tc.body)...)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			_, err := ReadGuidance(bytes.NewReader(data))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("truncated guidance accepted")
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > tc.bound {
				t.Fatalf("allocated %d bytes for a %d-byte input, want <= %d", got, len(data), tc.bound)
			}
		})
	}
}
