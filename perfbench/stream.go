package main

import (
	"fmt"
	"time"

	"tflux/internal/chaos"
	"tflux/internal/core"
	"tflux/internal/obs"
	"tflux/internal/rts"
	"tflux/internal/stream"
	"tflux/internal/workload"
)

// The stream workload feeds the EVENTFILTER pipeline (decode → filter →
// aggregate) through rts.RunStream with the Block policy and 2 workers.
// Its own paced source offers events on an absolute schedule at a fixed
// sustained rate; each window's latency runs from the due time of its
// last event to the window's Export, so queue wait and Block-policy
// stalls count and window fill time does not. Unbounded runs, alternated
// with the sustained ones, measure peak throughput. The seed is the
// EVENTFILTER payload seed.

const (
	streamWindow  = 256    // events per window
	streamSlots   = 4      // recycled window slots
	streamWorkers = 2      // firing workers
	streamRate    = 50_000 // sustained events per second
	// streamSustainedShare is the part of the measured time given to the
	// sustained phase; the unbounded phase gets the rest.
	streamSustainedShare = 0.5
	// streamWarmEvents is the unpaced run set-up makes to warm the path.
	streamWarmEvents = 200_000
	// streamSegments is how many sustained and unbounded run pairs a
	// measured phase is made of.
	streamSegments = 8
	// streamTailSplit cuts each sustained run's windows into this many
	// latency segments, about 100 windows each at --seconds 24.
	streamTailSplit = 3
)

type streamBench struct {
	seed uint32
	// faults, when set, is applied to the pipeline's stages; tests use
	// it to inject a stall.
	faults *chaos.Plan
}

func newStream(seed int64) *streamBench {
	return &streamBench{seed: uint32(seed)}
}

// setup builds the pipeline state and runs a fixed number of events
// through it unpaced, so the first measured window does not pay for
// first-use costs.
func (s *streamBench) setup() error {
	return s.runPhase(0, streamWarmEvents, 0, nil).err
}

func (s *streamBench) close() error { return nil }

// pacedSource emits sequence numbers on an absolute schedule: event i is
// due at start + i/rate and is never released before it is due. With
// rate 0 it emits as fast as it is pulled: n events, or with n 0 as many
// as are pulled before the deadline. It records when the last event of
// each window was released.
type pacedSource struct {
	n        int64 // events to emit (paced); unbounded sources use deadline
	rate     float64
	start    time.Time
	deadline time.Time
	next     int64

	admitted   []time.Time // per window: release time of its last event
	lagMax     time.Duration
	backlogMax int64 // events already due but not yet released
}

func (p *pacedSource) due(seq int64) time.Time {
	return p.start.Add(time.Duration(float64(seq) / p.rate * float64(time.Second)))
}

// Next implements stream.Source.
func (p *pacedSource) Next() (int64, bool) {
	seq := p.next
	if p.rate == 0 {
		if (p.n > 0 && seq >= p.n) || (p.n == 0 && time.Now().After(p.deadline)) {
			return 0, false
		}
		p.next++
		return seq, true
	}
	if seq >= p.n {
		return 0, false
	}
	p.next++
	due := p.due(seq)
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	now := time.Now()
	if lag := now.Sub(due); lag > p.lagMax {
		p.lagMax = lag
	}
	if backlog := int64(now.Sub(p.start).Seconds()*p.rate) - seq; backlog > p.backlogMax {
		p.backlogMax = backlog
	}
	if seq%streamWindow == streamWindow-1 || seq == p.n-1 {
		p.admitted[seq/streamWindow] = now
	}
	return seq, true
}

// Rate implements stream.Rater.
func (p *pacedSource) Rate() float64 { return p.rate }

type streamRun struct {
	st     stream.Stats
	events int64
	latMS  []float64 // per window, due time of the last event → Export
	// Summed over windows: the generator's lag on the last event, the
	// runtime's admission-to-Export span, and the Export call.
	lagMS, runtimeMS, exportMS float64
	src                        *pacedSource
	elapsed                    time.Duration
	err                        error // run or verification failure
}

// runPhase runs one pipeline over a fresh EVENTFILTER state: n events at
// rate (paced), or, with rate 0, n events unpaced or, with n 0 too, as
// many as the pipeline takes before d passes. It verifies the checksum
// against the sequential reference.
func (s *streamBench) runPhase(rate float64, n int64, d time.Duration, tr *tracer) streamRun {
	t := time.Now()
	ef, err := workload.NewEventFilter(streamWindow, streamSlots, s.seed)
	if err != nil {
		return streamRun{err: err}
	}
	p := ef.Pipeline()
	t = tr.span("workload.build", t)

	src := &pacedSource{n: n, rate: rate}
	var exporting, exported []time.Time
	if rate > 0 {
		windows := (n + streamWindow - 1) / streamWindow
		src.admitted = make([]time.Time, windows)
		exporting = make([]time.Time, windows)
		exported = make([]time.Time, windows)
		export := p.Export
		p.Export = func(win int64, slot int) {
			exporting[win] = time.Now()
			export(win, slot)
			exported[win] = time.Now()
		}
	}
	opt := stream.Options{Slots: streamSlots, Policy: stream.Block, Workers: streamWorkers}
	if s.faults != nil {
		opt.Faults, opt.FaultLog = s.faults, chaos.NewLog()
	}
	if tr != nil {
		// A fresh registry per run: the stream counters accumulate, and
		// the run's Stats are read from them.
		opt.Metrics = obs.NewRegistry()
	}
	src.start = time.Now()
	src.deadline = src.start.Add(d)
	st, err := rts.RunStream(p, src, opt)
	r := streamRun{st: st, events: src.next, src: src, elapsed: time.Since(src.start)}
	t = time.Now()
	if err != nil {
		r.err = err
		return r
	}
	if st.Events != r.events {
		r.err = fmt.Errorf("pipeline admitted %d of %d events", st.Events, r.events)
		return r
	}
	r.err = ef.Verify(r.events)
	tr.span("workload.verify", t)
	// From outside, a window's latency splits into the generator's lag on
	// its last event, the runtime's span from that event's admission to
	// the window's Export, and the Export call itself; the stamps' own
	// cost is what stays unattributed.
	for win, at := range exported {
		due := src.due(min(int64(win+1)*streamWindow, n) - 1)
		r.latMS = append(r.latMS, msBetween(due, at))
		r.lagMS += msBetween(due, src.admitted[win])
		r.runtimeMS += msBetween(src.admitted[win], exporting[win])
		r.exportMS += msBetween(exporting[win], at)
	}
	return r
}

func msBetween(from, to time.Time) float64 {
	return float64(to.Sub(from).Nanoseconds()) / 1e6
}

// measure alternates the two phases once per segment: a sustained run
// whose windows make up the segment's latency samples, then an unbounded
// run. Interleaving them makes both phases see the same stretches of a
// shared host, and every run starts over freshly allocated state.
func (s *streamBench) measure(d time.Duration, tr *tracer) (*phase, error) {
	sustained := time.Duration(float64(d)*streamSustainedShare) / streamSegments
	peakD := d/streamSegments - sustained
	n := int64(sustained.Seconds() * streamRate)
	ph := &phase{}
	var (
		runs                    []streamRun
		peakEvents, susEvents   int64
		peakElapsed, susElapsed time.Duration
		lagMS, spanMS, e2e      float64
		lagMax                  time.Duration
		backlogMax, inflight    int64
		fired, events           float64
	)
	for i := 0; i < streamSegments; i++ {
		sus := s.runPhase(streamRate, n, 0, tr)
		ph.segs = append(ph.segs, split(sus.latMS, streamTailSplit)...)
		susEvents += sus.events
		susElapsed += sus.elapsed
		lagMS += sus.lagMS
		spanMS += sus.lagMS + sus.runtimeMS + sus.exportMS
		e2e += sum(sus.latMS)
		lagMax = max(lagMax, sus.src.lagMax)
		backlogMax = max(backlogMax, sus.src.backlogMax)
		inflight = max(inflight, sus.st.MaxInFlight)

		peak := s.runPhase(0, 0, peakD, tr)
		peakEvents += peak.events
		peakElapsed += peak.elapsed
		runs = append(runs, sus, peak)
	}
	ph.rate = float64(peakEvents) / peakElapsed.Seconds()
	ph.detail = map[string]any{
		"stream.offered_eps":    float64(streamRate),
		"stream.sustained_eps":  float64(susEvents) / susElapsed.Seconds(),
		"stream.gen_lag_max_ms": float64(lagMax.Nanoseconds()) / 1e6,
		"stream.backlog_max":    backlogMax,
		"stream.peak_events":    peakEvents,
		"stream.peak_eps":       ph.rate,
	}
	// An operation is a window; a run whose checksum or event count is
	// wrong fails every window it carried.
	for _, r := range runs {
		windows := int((r.events + streamWindow - 1) / streamWindow)
		ph.attempted += windows
		if r.err != nil {
			ph.failed += max(windows, 1)
			ph.detail["first_error"] = r.err.Error()
		}
		fired += float64(r.st.Fired)
		events += float64(r.st.Events)
	}
	if tr == nil {
		return ph, nil
	}

	prog, err := streamProgram(s.seed)
	if err != nil {
		return nil, err
	}
	admitMS, tablesUS, err := lintAndTables(tr, []*core.Program{prog}, streamWorkers, 3)
	if err != nil {
		return nil, err
	}
	ph.spanFrac = ratio(spanMS, e2e)
	ph.layers = map[string]float64{
		"workload.build_us":      tr.meanUS("workload.build"),
		"workload.verify_us":     tr.meanUS("workload.verify"),
		"ddmlint.admit_ms":       admitMS,
		"tsu.tables_us":          tablesUS,
		"gen.lag_frac":           ratio(lagMS, e2e),
		"stream.backlog_max":     float64(backlogMax),
		"stream.max_inflight":    float64(inflight),
		"stream.fired_per_event": ratio(fired, events),
	}
	return ph, nil
}

// streamProgram is one window of the pipeline as a batch program, the
// form the admission lint and the frozen-table builder take.
func streamProgram(seed uint32) (*core.Program, error) {
	ef, err := workload.NewEventFilter(streamWindow, streamSlots, seed)
	if err != nil {
		return nil, err
	}
	return ef.Pipeline().Program()
}
