package exp

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestHardCyclesGolden pins the simulated cycle counts behind the paper's
// TFluxHard evidence: the seq/par integers of every full Figure 5 row and
// of its x86 companion, the TSU-latency sweep and the TSU-Groups study.
// Any change to the hardware model, the TSU's ready order or the workload
// programs shows up here as a changed integer, not as a drifted speedup
// ratio. Regenerate
// with `go test ./internal/exp -run HardCyclesGolden -update` only after
// an intentional change to the model.
func TestHardCyclesGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, e := range []struct {
		name string
		run  func(Options) ([]Row, error)
	}{
		{"fig5", Fig5},
		{"fig5x86", Fig5X86},
		{"tsulat", TSULatency},
		{"groups", Groups},
	} {
		rows, err := e.run(Options{})
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		for _, r := range rows {
			fmt.Fprintf(&buf, "%s %s %s k=%d u=%d seq=%d par=%d\n",
				r.Experiment, r.Benchmark, r.Size, r.Kernels, r.Unroll, int64(r.Seq), int64(r.Par))
		}
	}
	golden := filepath.Join("testdata", "hard_cycles.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("hardsim cycles drifted from golden at line %d:\n got: %s\nwant: %s", i+1, g, w)
			}
		}
	}
}
