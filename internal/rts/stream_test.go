package rts

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tflux/internal/chaos"
	"tflux/internal/core"
	"tflux/internal/obs"
	"tflux/internal/stream"
	"tflux/internal/workload"
)

// countingPipeline builds the canonical decode → filter → aggregate
// shape with per-seq execution counters on the entry stage, the
// exactly-once witness used across these tests.
func countingPipeline(w core.Context, n int64) (*stream.Pipeline, []atomic.Int32) {
	counts := make([]atomic.Int32, n)
	p := &stream.Pipeline{
		Name:   "count",
		Window: w,
		Stages: []stream.Stage{
			{Name: "decode", Instances: w, Map: core.OneToOne{}, Body: func(c stream.Ctx) {
				counts[c.Seq].Add(1)
			}},
			{Name: "filter", Instances: w, Map: core.Gather{Fan: 4}},
			{Name: "aggregate", Instances: w / 4},
		},
	}
	return p, counts
}

func TestRunStreamExactlyOnce(t *testing.T) {
	const n, w = 100, 8 // 12 full windows + a 4-event partial window
	p, counts := countingPipeline(w, n)
	st, err := RunStream(p, stream.NewCountSource(n, 0), stream.Options{Slots: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for seq := range counts {
		if got := counts[seq].Load(); got != 1 {
			t.Fatalf("seq %d executed %d times", seq, got)
		}
	}
	if st.Events != n || st.ShedEvents != 0 || st.ShedWindows != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.Windows != 13 || st.Padded != 4 {
		t.Fatalf("windows %d padded %d, want 13/4", st.Windows, st.Padded)
	}
	if want := int64(13 * (8 + 8 + 2)); st.Fired != want {
		t.Fatalf("fired %d, want %d", st.Fired, want)
	}
	if st.MaxInFlight > 2 {
		t.Fatalf("in-flight windows %d exceeded the %d-slot budget", st.MaxInFlight, 2)
	}
	if st.P50 <= 0 || st.P99 < st.P50 {
		t.Fatalf("latency quantiles p50=%v p99=%v", st.P50, st.P99)
	}
	if st.AchievedEPS <= 0 {
		t.Fatalf("achieved eps %v", st.AchievedEPS)
	}
}

// TestRunStreamShed pins the overload contract: with the Shed policy
// and a pipeline slower than the source, whole windows drop, memory
// stays bounded, and every admitted event still executes exactly once.
func TestRunStreamShed(t *testing.T) {
	const n, w = 64, 8
	p, counts := countingPipeline(w, n)
	agg := &p.Stages[2]
	agg.Body = func(stream.Ctx) { time.Sleep(3 * time.Millisecond) }
	st, err := RunStream(p, stream.NewCountSource(n, 0), stream.Options{
		Slots: 1, Workers: 2, Policy: stream.Shed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.ShedWindows == 0 {
		t.Fatal("unbounded source with a slow 1-slot pipeline shed nothing")
	}
	if st.Events+st.ShedEvents != n {
		t.Fatalf("admitted %d + shed %d != %d offered", st.Events, st.ShedEvents, n)
	}
	if st.MaxInFlight > 1 {
		t.Fatalf("in-flight windows %d with 1 slot", st.MaxInFlight)
	}
	var executed int64
	for seq := range counts {
		got := counts[seq].Load()
		if got > 1 {
			t.Fatalf("seq %d executed %d times", seq, got)
		}
		executed += int64(got)
	}
	if executed != st.Events {
		t.Fatalf("executed %d events, stats admitted %d", executed, st.Events)
	}
}

func TestRunStreamExport(t *testing.T) {
	const n, w = 32, 8
	p, _ := countingPipeline(w, n)
	var mu sync.Mutex
	retiredWins := make(map[int64]int)
	p.Export = func(win int64, slot int) {
		mu.Lock()
		retiredWins[win]++
		mu.Unlock()
		if slot < 0 || slot >= 2 {
			t.Errorf("export slot %d out of range", slot)
		}
	}
	st, err := RunStream(p, stream.NewCountSource(n, 0), stream.Options{Slots: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(retiredWins)) != st.Windows {
		t.Fatalf("export ran for %d windows, %d retired", len(retiredWins), st.Windows)
	}
	for win, c := range retiredWins {
		if c != 1 {
			t.Fatalf("window %d exported %d times", win, c)
		}
	}
}

func TestRunStreamErrors(t *testing.T) {
	p, _ := countingPipeline(8, 8)
	if _, err := RunStream(nil, stream.NewCountSource(1, 0), stream.Options{}); err == nil {
		t.Fatal("nil pipeline accepted")
	}
	if _, err := RunStream(p, nil, stream.Options{}); err == nil {
		t.Fatal("nil source accepted")
	}
	bad := &stream.Pipeline{Window: 4} // no stages
	if _, err := RunStream(bad, stream.NewCountSource(1, 0), stream.Options{}); err == nil {
		t.Fatal("invalid pipeline accepted")
	}
	plan, err := chaos.ParseSpec("sever:after=1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunStream(p, stream.NewCountSource(1, 0), stream.Options{Faults: plan}); err == nil {
		t.Fatal("sever fault accepted for in-process stream")
	}
}

func TestRunStreamEmptySource(t *testing.T) {
	p, _ := countingPipeline(8, 1)
	st, err := RunStream(p, stream.NewCountSource(0, 0), stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != 0 || st.Windows != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestStreamSoak is the sustained-rate soak: a paced source, windowed
// recycling under concurrent firing, and one injected chaos fault, all
// meant to run under -race (the CI stream-soak job does exactly that).
// The assertion is the streaming correctness contract: zero lost and
// zero duplicated events.
func TestStreamSoak(t *testing.T) {
	const (
		n    = 2000
		w    = 16
		rate = 50000 // events/sec offered
	)
	p, counts := countingPipeline(w, n)
	plan, err := chaos.ParseSpec("latency:node=1:after=100:dur=100us")
	if err != nil {
		t.Fatal(err)
	}
	log := chaos.NewLog()
	reg := obs.NewRegistry()
	st, err := RunStream(p, stream.NewCountSource(n, rate), stream.Options{
		Slots: 4, Workers: 8, Metrics: reg, Faults: plan, FaultLog: log,
	})
	if err != nil {
		t.Fatal(err)
	}
	lost, dup := 0, 0
	for seq := range counts {
		switch counts[seq].Load() {
		case 1:
		case 0:
			lost++
		default:
			dup++
		}
	}
	if lost != 0 || dup != 0 {
		t.Fatalf("soak: %d lost, %d duplicated of %d events", lost, dup, n)
	}
	if st.Events != n {
		t.Fatalf("admitted %d of %d (Block policy must not drop)", st.Events, n)
	}
	if st.Faults == 0 {
		t.Fatal("chaos fault never fired")
	}
	if st.MaxInFlight > 4 {
		t.Fatalf("in-flight windows %d exceeded 4 slots", st.MaxInFlight)
	}
	if st.OfferedEPS != rate {
		t.Fatalf("offered eps %v", st.OfferedEPS)
	}
	if got := reg.Counter("stream.injected").Value(); got != n {
		t.Fatalf("stream.injected = %d", got)
	}
	if got := reg.Histogram("stream.event_latency_ns", obs.LatencyBuckets).Count(); got != n {
		t.Fatalf("latency samples = %d, want one per admitted event", got)
	}
}

// streamAllocs is the mean heap-allocation count of one EVENTFILTER run
// of n events through RunStream (set-up included), with the checksum
// verified on every run.
func streamAllocs(t *testing.T, n int64) float64 {
	t.Helper()
	const w, slots = 64, 4
	ef, err := workload.NewEventFilter(w, slots, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := ef.Pipeline()
	runs := 0
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := RunStream(p, stream.NewCountSource(n, 0), stream.Options{Slots: slots, Workers: 2}); err != nil {
			t.Fatal(err)
		}
		runs++
	})
	// AllocsPerRun adds one warm-up run; every run adds to the checksum.
	wantSum, wantAcc := ef.Reference(n)
	if got := ef.Checksum(); got != wantSum*uint64(runs) {
		t.Fatalf("checksum %#x after %d runs, want %#x", got, runs, wantSum*uint64(runs))
	}
	if got := ef.Accepted(); got != wantAcc*int64(runs) {
		t.Fatalf("accepted %d after %d runs, want %d", got, runs, wantAcc*int64(runs))
	}
	return allocs
}

// TestRunStreamAllocsFlatInEvents pins the streaming firing loop to no
// per-event heap allocation: a run of 128 windows allocates no more than
// a run of one window, beyond a fixed slack for set-up that varies with
// scheduling.
func TestRunStreamAllocsFlatInEvents(t *testing.T) {
	one := streamAllocs(t, 64)
	many := streamAllocs(t, 128*64)
	t.Logf("allocations: %.0f for 1 window, %.0f for 128 windows", one, many)
	if many > one+32 {
		t.Fatalf("%.0f allocations for 128 windows vs %.0f for one: the firing loop allocates per event", many, one)
	}
}

// TestRunStreamContinuationMatrix is the exactly-once matrix for the
// firing loop's local continuation (a worker runs the first consumer it
// fires itself) and for both entry dispatch modes: window sizes ×
// sources × worker counts × backpressure policies × chaos stage delays.
// The unpaced source has entries sent in runs, the paced one each entry
// on its own. With 1000 events, W = 16 ends on an 8-event partial
// window, shorter than a run; W = 64 ends on a 40-event partial window
// (local 40 of window 15), past one full run and mid-way through the
// next. Every retired window exports once and fires its whole closure,
// shed accounting balances, the checksum matches the sequential
// reference over exactly the retired windows, and no goroutine outlives
// the run.
func TestRunStreamContinuationMatrix(t *testing.T) {
	for _, w := range []int64{16, 64} {
		for _, paced := range []bool{false, true} {
			for _, workers := range []int{1, 2, 4} {
				for _, policy := range []stream.Policy{stream.Block, stream.Shed} {
					for _, spec := range []string{"", "latency:node=2:after=2:dur=10us;stall-read:node=1:after=2:dur=5ms"} {
						// The W = 16 unpaced cells keep their original names.
						name := fmt.Sprintf("workers=%d/%v/faults=%t", workers, policy, spec != "")
						if paced {
							name = "paced/" + name
						}
						if w != 16 {
							name = fmt.Sprintf("w=%d/%s", w, name)
						}
						t.Run(name, func(t *testing.T) {
							matrixCase(t, w, paced, workers, policy, spec)
						})
					}
				}
			}
		}
	}
}

// matrixCase is one cell of TestRunStreamContinuationMatrix: n events
// in windows of w on 2 slots, offered unpaced or paced at 200K events/s.
func matrixCase(t *testing.T, w int64, paced bool, workers int, policy stream.Policy, spec string) {
	const (
		n     = 1000
		slots = 2
		rate  = 200_000
	)
	windows := (n + w - 1) / w
	before := runtime.NumGoroutine()
	ef, err := workload.NewEventFilter(core.Context(w), slots, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := ef.Pipeline()
	export := p.Export
	var mu sync.Mutex
	exported := make(map[int64]int)
	p.Export = func(win int64, slot int) {
		mu.Lock()
		exported[win]++
		mu.Unlock()
		export(win, slot)
	}
	opt := stream.Options{Slots: slots, Workers: workers, Policy: policy}
	if spec != "" {
		if opt.Faults, err = chaos.ParseSpec(spec); err != nil {
			t.Fatal(err)
		}
		opt.FaultLog = chaos.NewLog()
	}
	src := stream.NewCountSource(n, 0)
	if paced {
		src = stream.NewCountSource(n, rate)
	}
	st, err := RunStream(p, src, opt)
	if err != nil {
		t.Fatal(err)
	}

	if int64(len(exported)) != st.Windows {
		t.Fatalf("%d windows exported, %d retired", len(exported), st.Windows)
	}
	var sum uint64
	var acc, admitted int64
	for win, c := range exported {
		if c != 1 {
			t.Fatalf("window %d exported %d times", win, c)
		}
		lo, hi := win*w, min((win+1)*w, n)
		s1, a1 := ef.Reference(hi)
		s0, a0 := ef.Reference(lo)
		sum, acc, admitted = sum+s1-s0, acc+a1-a0, admitted+hi-lo
	}
	if got := ef.Checksum(); got != sum {
		t.Fatalf("checksum %#x, reference over retired windows %#x", got, sum)
	}
	if got := ef.Accepted(); got != acc {
		t.Fatalf("accepted %d, reference over retired windows %d", got, acc)
	}
	if st.Events != admitted || st.Events+st.ShedEvents != n || st.Windows+st.ShedWindows != windows {
		t.Fatalf("admitted %d (retired windows hold %d) + shed %d of %d events; %d retired + %d shed of %d windows",
			st.Events, admitted, st.ShedEvents, n, st.Windows, st.ShedWindows, windows)
	}
	if want := st.Windows * p.PerWindow(); st.Fired != want {
		t.Fatalf("fired %d, want %d for %d windows", st.Fired, want, st.Windows)
	}
	if policy == stream.Block {
		if st.ShedEvents != 0 || st.ShedWindows != 0 {
			t.Fatalf("Block policy shed %d events", st.ShedEvents)
		}
		if err := ef.Verify(n); err != nil {
			t.Fatal(err)
		}
	}
	if spec != "" {
		if st.Faults == 0 {
			t.Fatal("chaos stage delays never fired")
		}
		// Only the unpaced source is sure to outrun a pipeline that has
		// a slot pinned by the stall; a paced one may be kept up with.
		if policy == stream.Shed && !paced && st.ShedWindows == 0 {
			t.Fatal("a 5 ms stall on a 2-slot pipeline with an unpaced source shed nothing")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// lockstepSource releases event k+1 only once event k's entry body has
// run, giving up after timeout. A run loop that held an admitted entry
// while the source waits would stall it: Next then ends the stream and
// records the stall, so a failing run still finishes.
type lockstepSource struct {
	n, next int64
	ran     []chan struct{} // closed by event k's entry body
	timeout time.Duration
	stalled int64 // event whose predecessor never ran; -1 for none
}

func newLockstepSource(n int64) *lockstepSource {
	s := &lockstepSource{n: n, ran: make([]chan struct{}, n), timeout: 5 * time.Second, stalled: -1}
	for i := range s.ran {
		s.ran[i] = make(chan struct{})
	}
	return s
}

// Next implements stream.Source.
func (s *lockstepSource) Next() (int64, bool) {
	if s.next >= s.n || s.stalled >= 0 {
		return 0, false
	}
	seq := s.next
	if seq > 0 {
		select {
		case <-s.ran[seq-1]:
		case <-time.After(s.timeout):
			s.stalled = seq
			return 0, false
		}
	}
	s.next++
	return seq, true
}

// ratedLockstepSource is a lockstepSource that reports a non-zero
// offered rate, so it does not declare that Next never waits.
type ratedLockstepSource struct{ *lockstepSource }

// Rate implements stream.Rater.
func (ratedLockstepSource) Rate() float64 { return 1e6 }

// TestRunStreamNoHoldPaced pins the dispatch contract for sources that
// may wait: RunStream sends every admitted entry before it asks the
// source for the next event. Each source here waits in Next for the
// previous event's entry body to run, so an entry held back for a run
// stalls the stream.
func TestRunStreamNoHoldPaced(t *testing.T) {
	const n, w = 100, 8 // 12 full windows + a 4-event partial window
	for _, rated := range []bool{false, true} {
		t.Run(fmt.Sprintf("rater=%t", rated), func(t *testing.T) {
			ls := newLockstepSource(n)
			var src stream.Source = ls
			if rated {
				src = ratedLockstepSource{ls}
			}
			p, counts := countingPipeline(w, n)
			decode := p.Stages[0].Body
			p.Stages[0].Body = func(c stream.Ctx) {
				decode(c)
				close(ls.ran[c.Seq])
			}
			st, err := RunStream(p, src, stream.Options{Slots: 2, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if ls.stalled >= 0 {
				t.Fatalf("event %d: the source waited %v for event %d's entry, which RunStream held back",
					ls.stalled, ls.timeout, ls.stalled-1)
			}
			if st.Events != n {
				t.Fatalf("admitted %d of %d events", st.Events, n)
			}
			for seq := range counts {
				if got := counts[seq].Load(); got != 1 {
					t.Fatalf("seq %d executed %d times", seq, got)
				}
			}
		})
	}
}
