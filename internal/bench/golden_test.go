package bench

import (
	"io"
	"testing"

	"slfe/internal/metrics"
)

// The paper's two counter claims as exact golden rows at a fixed small
// scale (-scale 2000, 2 ranks, 1 thread, root 0, 30 PageRank iterations):
// Table 2's SSSP update totals and Figure 9's computation totals, each
// with and without redundancy reduction. The counters are deterministic,
// so any change to them is a change in what the engine does and must come
// with an explanation of the new numbers.
const goldenScale = 2000

// goldenPair is one row: a counter's total without RR and with RR.
type goldenPair struct{ base, rr int64 }

// TestGoldenTable2Updates pins Table 2: SSSP updates on every dataset
// proxy, without RR (the Gemini proxy column) and with RR.
func TestGoldenTable2Updates(t *testing.T) {
	want := map[string]goldenPair{
		"OK": {2585, 2844}, "LJ": {3542, 3493}, "WK": {9840, 9860}, "DI": {22328, 22625},
		"PK": {1272, 1298}, "ST": {7825, 7949}, "FS": {44319, 44675},
	}
	c := Config{Scale: goldenScale, Nodes: 2, Out: io.Discard}
	for _, name := range []string{"OK", "LJ", "WK", "DI", "PK", "ST", "FS"} {
		got := goldenRun(t, &c, "SSSP", name, (*metrics.Run).Updates)
		if got != want[name] {
			t.Errorf("Table 2 %s: SSSP updates (w/o RR, w/ RR) = %d, %d; golden %d, %d",
				name, got.base, got.rr, want[name].base, want[name].rr)
		}
	}
}

// TestGoldenFig9Computations pins Figure 9: total computations of SSSP,
// CC and PageRank on the FS and LJ proxies, without and with RR.
func TestGoldenFig9Computations(t *testing.T) {
	want := map[string]goldenPair{
		"SSSP/FS": {1597027, 1493787}, "SSSP/LJ": {63702, 60597},
		"CC/FS": {3783977, 3783977}, "CC/LJ": {143213, 143213},
		"PR/FS": {27000000, 26999584}, "PR/LJ": {1035000, 1034948},
	}
	c := Config{Scale: goldenScale, Nodes: 2, Out: io.Discard}
	for _, app := range []string{"SSSP", "CC", "PR"} {
		for _, name := range []string{"FS", "LJ"} {
			key := app + "/" + name
			got := goldenRun(t, &c, app, name, (*metrics.Run).Computations)
			if got != want[key] {
				t.Errorf("Figure 9 %s: computations (w/o RR, w/ RR) = %d, %d; golden %d, %d",
					key, got.base, got.rr, want[key].base, want[key].rr)
			}
		}
	}
}

// goldenRun runs app on the named proxy without and with RR and returns
// the merged counter of each run.
func goldenRun(t *testing.T, c *Config, app, name string, counter func(*metrics.Run) int64) goldenPair {
	t.Helper()
	var out [2]int64
	for i, rr := range []bool{false, true} {
		res, err := c.RunSLFE(app, name, c.Nodes, rr)
		if err != nil {
			t.Fatalf("%s/%s rr=%v: %v", app, name, rr, err)
		}
		out[i] = counter(metrics.Merge(res.PerWorker))
	}
	return goldenPair{out[0], out[1]}
}
