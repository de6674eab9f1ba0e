package main

import (
	"math"
	"testing"
	"time"

	"tflux/internal/chaos"
)

func TestQuantileKnownSamples(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5},
	} {
		if got := quantileSorted(s, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

func TestTailSelection(t *testing.T) {
	// 1..100 in reverse: ten samples (91..100) lie beyond the tail, 90.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	d := summarize(xs)
	if d.N != 100 || d.P50 != 50.5 {
		t.Fatalf("n %d p50 %v, want 100 and 50.5", d.N, d.P50)
	}
	if d.Tail != 90 || d.TailBeyond != tailBeyond {
		t.Fatalf("tail %v with %d beyond, want 90 with %d", d.Tail, d.TailBeyond, tailBeyond)
	}
	if want := 100 * 89.0 / 99.0; math.Abs(d.TailPct-want) > 1e-9 {
		t.Fatalf("tail percentile %v, want %v", d.TailPct, want)
	}
	// The reported percentile reads back the reported value.
	s := []float64{}
	for i := 1; i <= 100; i++ {
		s = append(s, float64(i))
	}
	if got := quantileSorted(s, d.TailPct/100); math.Abs(got-d.Tail) > 1e-9 {
		t.Fatalf("quantile at the tail percentile = %v, want %v", got, d.Tail)
	}
	// Too few samples for ten beyond: the maximum, with none beyond.
	small := summarize([]float64{3, 1, 2})
	if small.Tail != 3 || small.TailBeyond != 0 || small.TailPct != 100 {
		t.Fatalf("small tail = %+v", small)
	}
	// Exactly eleven samples: the smallest has ten beyond it.
	eleven := summarize([]float64{11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if eleven.Tail != 1 || eleven.TailPct != 0 {
		t.Fatalf("eleven-sample tail = %+v", eleven)
	}
}

func TestPhaseLatencyIsMedianOfSegmentTails(t *testing.T) {
	seg := func(base float64) []float64 {
		xs := make([]float64, 20)
		for i := range xs {
			xs[i] = base + float64(i)
		}
		return xs
	}
	// Segment tails are base+9: 9, 109 and 1009; the median is 109.
	ph := &phase{segs: [][]float64{seg(0), seg(1000), seg(100)}}
	lat := ph.latency()
	if lat.N != 60 || lat.Tail != 109 {
		t.Fatalf("latency = %+v, want 60 samples and tail 109", lat)
	}
	if lat.P50 != 109.5 {
		t.Fatalf("p50 %v, want the median of all samples, 109.5", lat.P50)
	}
	parts := split(seg(0), 3)
	if len(parts) != 3 || len(parts[0])+len(parts[1])+len(parts[2]) != 20 || parts[2][len(parts[2])-1] != 19 {
		t.Fatalf("split into %v", parts)
	}
}

// TestStreamDueTimeLatencyCountsStall stalls one firing of every stage
// in window 20, which parks both workers, so the window slots fill. Under
// the Block policy the source then waits for a free slot, and windows
// due during the stall are admitted late; timed from their due time,
// they show the stall.
func TestStreamDueTimeLatencyCountsStall(t *testing.T) {
	const stall = 100 * time.Millisecond
	s := newStream(7)
	s.faults = &chaos.Plan{Rules: []chaos.Rule{{
		Kind: chaos.StallWrite, Node: -1, After: 20 * streamWindow, Dur: stall,
	}}}
	r := s.runPhase(streamRate, 100*streamWindow, 0, nil)
	if r.err != nil {
		t.Fatal(r.err)
	}
	if len(r.latMS) != 100 {
		t.Fatalf("%d window latencies, want 100", len(r.latMS))
	}
	late := 0
	var worst float64
	for _, l := range r.latMS {
		worst = max(worst, l)
		if l >= float64(stall.Milliseconds())/2 {
			late++
		}
	}
	t.Logf("%d of %d windows at least half a stall late, worst %.1f ms, backlog peak %d events", late, len(r.latMS), worst, r.src.backlogMax)
	if worst < float64(stall.Milliseconds())*0.9 {
		t.Errorf("worst window latency %.1f ms, want at least the %v stall", worst, stall)
	}
	// At most streamSlots windows can be inside the runtime; the rest of
	// those due during the stall waited for admission.
	if late <= streamSlots {
		t.Errorf("%d windows at least half a stall late, want more than the %d slots", late, streamSlots)
	}
	if r.src.backlogMax < streamWindow {
		t.Errorf("generator backlog peaked at %d events, want at least a window's worth", r.src.backlogMax)
	}
}

// TestSmokeEveryWorkload runs each workload briefly, untraced and traced,
// and checks that it verified every operation and emitted every metric.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range []string{"batch", "serve", "stream"} {
		for _, traced := range []bool{false, true} {
			out, err := execute(workloads[name], name, 3, time.Second, traced, testWriter{t})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			res := out.result
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct %v, %d of %d failed (%v)", name, traced, res.Correct, res.Failed, res.Attempted, out.detail["first_error"])
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v", name, traced, m.name, got)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, got.Value)
				}
			}
		}
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}
