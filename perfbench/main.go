// Command perfbench is the repository benchmark: one command that runs
// the batch, serve or stream workload on this host, checks every output
// it produces, and prints the end-to-end metrics (untraced) or the
// per-layer metrics (traced) as one JSON object on its last line.
//
//	bash perfbench/run.sh --workload batch --seed 1 --seconds 24 --trace 0
//
// The benchmark measures the layers from outside: it times calls into
// each module's public functions and reads the counts those functions
// already return. The load is generated in-process and kept to the
// shape of a 2-CPU host: 2 kernels, workers or SPEs, a 2-node × 1-kernel
// loopback fleet, and at most 2 client connections.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"sync"
	"time"

	"tflux/internal/obs"
)

// segments is how many consecutive slices a measured phase is split
// into; see phase.
const segments = 3

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and only the last set-up is measured.
const setupReps = 3

// bench is one workload: set up once per repetition, measured for a
// duration untraced (and, for a traced run, a second time traced), then
// closed.
type bench interface {
	setup() error
	measure(d time.Duration, tr *tracer) (*phase, error)
	close() error
}

// phase is what one measured phase of a workload produced. Its latency
// samples are split into segments — consecutive slices of its measured
// time — and the tail it reports is the median of the segments' tails,
// so a burst of interference on a shared host moves one segment, not the
// reported value.
type phase struct {
	// segs holds the latency samples of the workload's operation, in ms,
	// per segment.
	segs [][]float64
	// rate is operations completed per second over the whole phase.
	rate      float64
	attempted int
	failed    int
	// detail holds the workload's own named metrics for the detail line.
	detail map[string]any
	// layers holds the per-layer metrics (traced phases only).
	layers map[string]float64
	// spanFrac is the share of the phase's end-to-end time covered by
	// the benchmark's layer spans (traced phases only).
	spanFrac float64
}

var workloads = map[string]func(seed int64) bench{
	"batch":  func(seed int64) bench { return newBatch(seed) },
	"serve":  func(seed int64) bench { return newServe(seed) },
	"stream": func(seed int64) bench { return newStream(seed) },
}

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the untraced metrics every workload reports. The
// latency tail is in the detail line only: on a shared 2-CPU host its
// run-to-run spread is wider than any bound a regression gate can use.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"heap_mib", "MiB"},
	{"p50_ms", "ms"},
	{"rate_per_s", "1/s"},
}

// perLayer lists the traced metrics every workload reports. A layer the
// workload does not reach reports 0; every such metric is a count, a
// ratio or a rate, never a time, so a zero is a measured absence of work.
var perLayer = []struct{ name, unit string }{
	{"workload.build_us", "us"},
	{"workload.verify_us", "us"},
	{"ddmlint.admit_ms", "ms"},
	{"tsu.tables_us", "us"},
	{"tsu.decrements_per_inst", "ratio"},
	{"tsu.cross_shard_frac", "frac"},
	{"tub.try_miss_frac", "frac"},
	{"rts.soft_inst_per_s", "1/s"},
	{"rts.sharded_inst_per_s", "1/s"},
	{"rts.idle_frac", "frac"},
	{"rts.shard_imbalance", "ratio"},
	{"cellsim.inst_per_s", "1/s"},
	{"cellsim.dma_bytes", "count"},
	{"cellsim.commands_per_inst", "ratio"},
	{"dist.inst_per_s", "1/s"},
	{"dist.msgs_per_inst", "ratio"},
	{"dist.bytes_out", "count"},
	{"dist.region_cache_hit_frac", "frac"},
	{"dist.exec_frac", "frac"},
	{"serve.hot_wait_frac", "frac"},
	{"serve.cold_wait_frac", "frac"},
	{"serve.cache_hit_frac", "frac"},
	{"serve.rejected", "count"},
	{"gen.lag_frac", "frac"},
	{"stream.backlog_max", "count"},
	{"stream.max_inflight", "count"},
	{"stream.fired_per_event", "ratio"},
	{"obs.overhead_pct", "%"},
	{"obs.events_per_op", "ratio"},
	{"unattributed_frac", "frac"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line, runs one workload and prints its result.
// It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: batch, serve or stream")
	seed := fs.Int64("seed", 1, "workload seed (arrival schedules, spec order, event payloads)")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 gives half the time to a traced phase and reports per-layer metrics instead")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload batch|serve|stream, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	out, err := execute(mk, *name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(out.detail); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(out.result); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// result is the last line of output, in the shape the benchmark contract
// fixes.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type output struct {
	detail map[string]any
	result result
}

// execute sets the workload up setupReps times, measures the last set-up,
// checks for leaked goroutines after teardown, and assembles the output.
func execute(mk func(int64) bench, name string, seed int64, d time.Duration, traced bool, stderr io.Writer) (*output, error) {
	baseline := runtime.NumGoroutine()
	var (
		b      bench
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		b = mk(seed)
		t0 := time.Now()
		if err := b.setup(); err != nil {
			b.close() //nolint:errcheck // the set-up error is the one to report
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			if err := b.close(); err != nil {
				return nil, fmt.Errorf("teardown: %w", err)
			}
		}
	}

	// A traced run splits its time between an untraced phase, the base
	// of obs.overhead_pct, and the traced phase.
	plainD := d
	if traced {
		plainD = d / 2
	}
	runtime.GC()
	hs := startHeapSampler()
	plain, err := b.measure(plainD, nil)
	heap := hs.stop()
	var tracedPh *phase
	if err == nil && traced {
		tracedPh, err = b.measure(d-plainD, newTracer())
	}
	if cerr := b.close(); err == nil && cerr != nil {
		err = fmt.Errorf("teardown: %w", cerr)
	}
	if err != nil {
		return nil, err
	}

	attempted, failed := plain.attempted, plain.failed
	if tracedPh != nil {
		attempted += tracedPh.attempted
		failed += tracedPh.failed
	}
	leaked := !goroutinesSettle(baseline, 5*time.Second)
	if leaked {
		fmt.Fprintf(stderr, "perfbench: %s leaked goroutines (%d running, %d before the workload):\n%s\n",
			name, runtime.NumGoroutine(), baseline, allStacks())
		failed++
	}

	lat := plain.latency()
	detail := map[string]any{
		"workload":      name,
		"host":          hostFingerprint(seed),
		"setup_s":       setups,
		"latency":       lat,
		"leaked":        leaked,
		"heap_peak_mib": slices.Max(heap) / (1 << 20),
	}
	for k, v := range plain.detail {
		detail[k] = v
	}

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if !traced {
		vals := map[string]float64{
			"setup_s":    median(setups),
			"heap_mib":   median(heap) / (1 << 20),
			"p50_ms":     lat.P50,
			"rate_per_s": plain.rate,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
		}
		return &output{detail: detail, result: res}, nil
	}

	layers := tracedPh.layers
	layers["obs.overhead_pct"] = 100 * (ratio(plain.rate, tracedPh.rate) - 1)
	layers["unattributed_frac"] = 1 - tracedPh.spanFrac
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: layers[m.name], Unit: m.unit}
	}
	detail["traced"] = tracedPh.detail
	return &output{detail: detail, result: res}, nil
}

// split cuts xs into parts consecutive slices of near-equal length.
func split(xs []float64, parts int) [][]float64 {
	out := make([][]float64, parts)
	for i := range out {
		out[i] = xs[i*len(xs)/parts : (i+1)*len(xs)/parts]
	}
	return out
}

// phaseLatency is the latency summary a phase reports: the exact median
// of all its samples, and the median over segments of each segment's
// tail.
type phaseLatency struct {
	N        int       `json:"n"`
	P50      float64   `json:"p50_ms"`
	Tail     float64   `json:"tail_ms"`
	Segments []summary `json:"segments"`
}

func (p *phase) latency() phaseLatency {
	var all, tails []float64
	out := phaseLatency{}
	for _, seg := range p.segs {
		all = append(all, seg...)
		sm := summarize(seg)
		out.Segments = append(out.Segments, sm)
		if sm.N > 0 {
			tails = append(tails, sm.Tail)
		}
	}
	out.N = len(all)
	out.P50 = median(all)
	out.Tail = median(tails)
	return out
}

// hostFingerprint identifies the machine and settings a result came from.
func hostFingerprint(seed int64) map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     runtime.NumCPU(),
		"go":         runtime.Version(),
		"seed":       seed,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// goroutinesSettle waits up to limit for the goroutine count to return to
// the pre-workload baseline.
func goroutinesSettle(baseline int, limit time.Duration) bool {
	deadline := time.Now().Add(limit)
	for {
		if runtime.NumGoroutine() <= baseline {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func allStacks() string {
	buf := make([]byte, 1<<20)
	return string(buf[:runtime.Stack(buf, true)])
}

// heapSampler samples the heap objects in use (live plus not yet swept)
// while a phase runs and keeps the peak of each heapInterval. Where in
// its cycle the collector happens to be moves a single peak by tens of
// percent, so the reported value is the median of the interval peaks.
type heapSampler struct {
	stopc chan struct{}
	done  chan []float64
}

const (
	heapMetric   = "/memory/classes/heap/objects:bytes"
	heapInterval = 500 * time.Millisecond
)

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: heapMetric}}
		var peaks []float64
		var peak float64
		next := time.Now().Add(heapInterval)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			peak = max(peak, float64(sample[0].Value.Uint64()))
			if now := time.Now(); now.After(next) {
				peaks = append(peaks, peak)
				peak, next = 0, now.Add(heapInterval)
			}
			select {
			case <-h.stopc:
				h.done <- append(peaks, peak)
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the per-interval peaks in bytes.
func (h *heapSampler) stop() []float64 {
	close(h.stopc)
	return <-h.done
}

// tracer collects the benchmark's own spans around calls into each layer
// plus the program's event stream and metrics registry, passed in through
// the layers' public options. A nil *tracer records nothing.
type tracer struct {
	rec *obs.Recorder
	reg *obs.Registry
	mu  sync.Mutex
	sp  map[string]*spanAgg
}

type spanAgg struct {
	n     int
	total time.Duration
}

func newTracer() *tracer {
	return &tracer{rec: obs.NewRecorder(), reg: obs.NewRegistry(), sp: map[string]*spanAgg{}}
}

// span records one call into a layer that started at t0 and returns now.
func (t *tracer) span(name string, t0 time.Time) time.Time {
	now := time.Now()
	if t == nil {
		return now
	}
	t.mu.Lock()
	a := t.sp[name]
	if a == nil {
		a = &spanAgg{}
		t.sp[name] = a
	}
	a.n++
	a.total += now.Sub(t0)
	t.mu.Unlock()
	return now
}

// meanUS returns the mean span of name in microseconds.
func (t *tracer) meanUS(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.sp[name]
	if a == nil || a.n == 0 {
		return 0
	}
	return float64(a.total.Nanoseconds()) / 1e3 / float64(a.n)
}

// total returns the summed duration of every span recorded so far.
func (t *tracer) total() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum time.Duration
	for _, a := range t.sp {
		sum += a.total
	}
	return sum
}

// events returns how many events the recorder holds (0 untraced).
func (t *tracer) events() int {
	if t == nil {
		return 0
	}
	return t.rec.Len()
}

// now returns the recorder's clock, the time base of its events.
func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return t.rec.Now()
}
