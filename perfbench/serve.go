package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"tflux/internal/cellsim"
	"tflux/internal/core"
	"tflux/internal/dist"
	"tflux/internal/obs"
	"tflux/internal/rts"
	"tflux/internal/serve"
	"tflux/internal/workload"
)

// The serve workload runs an in-process tfluxd — serve.New over
// dist.NewLocalFleet(2, 1) with default options and a 64-entry program
// cache — and drives it from two tenant connections with open-loop
// traffic at fixed rates. Tenant "hot" repeats a small spec set (TRAPEZ
// at unroll 512, execution-bound, and FFT at unroll 1), so it hits the
// admission cache. Tenant "cold" cycles through more distinct low-unroll
// shapes than the cache holds, in one seeded order repeated, so every
// cold submission misses: it pays resolve, ddmlint.Admit and
// tsu.NewTables. Latency runs from each request's due send time to its
// Result; the hot requests are the workload's latency samples and the
// cold ones are summarized apart. Closed-loop stretches on the hot set,
// alternated with the open-loop ones, measure saturation. The seed
// drives the arrival jitter and the order of both spec sequences.

const (
	serveNodes      = 2
	serveKPN        = 1
	serveKernels    = serveNodes * serveKPN
	serveCache      = 64
	serveHotRate    = 60.0 // hot submissions per second
	serveColdRate   = 12.0 // cold submissions per second
	serveOpenShare  = 0.75 // share of the measured time run open-loop
	serveClosedRefs = 4    // closed-loop callers, one outstanding each
	// serveTailSplit cuts each open-loop stretch's requests, in due
	// order, into this many latency segments.
	serveTailSplit = 2
)

// hotSpecs is the hot tenant's spec set; hotMix repeats each index in the
// proportion the hot tenant sends it (3 TRAPEZ : 1 FFT).
var (
	hotSpecs = []dist.ProgramSpec{
		{Name: "TRAPEZ", Param: 19, Kernels: serveKernels, Unroll: 512},
		{Name: "FFT", Param: 32, Kernels: serveKernels, Unroll: 1},
	}
	hotMix = []int{0, 0, 0, 1}
)

// coldSpecs returns the cold tenant's 72 distinct specs: shapes of FFT,
// SUSAN and TRAPEZ at unroll 1 to 5 and varied sizes, none of them a hot
// spec. Repeated in one order, more distinct specs than the program cache
// holds make every cold submission a miss.
func coldSpecs() []dist.ProgramSpec {
	var out []dist.ProgramSpec
	add := func(name string, param, unroll int) {
		out = append(out, dist.ProgramSpec{Name: name, Param: param, Kernels: serveKernels, Unroll: unroll})
	}
	for u := 1; u <= 4; u++ {
		add("FFT", 16, u)
		add("FFT", 32, u+1)
	}
	for w := 64; w <= 288; w += 32 {
		for u := 1; u <= 3; u++ {
			add("SUSAN", w<<16|w*9/8, u)
		}
	}
	for log2n := 10; log2n <= 19; log2n++ {
		for u := 1; u <= 4; u++ {
			add("TRAPEZ", log2n, u)
		}
	}
	return out
}

// serveRef is one spec's expected result, from a verified local replica.
type serveRef struct {
	spec dist.ProgramSpec
	prog *core.Program
	fp   uint64
}

type serveBench struct {
	rng  *rand.Rand
	hot  []serveRef
	cold []serveRef // in the seeded order the cold tenant cycles through
	inst *serveInstance
}

func newServe(seed int64) *serveBench {
	return &serveBench{rng: rand.New(rand.NewSource(seed))}
}

// setup computes every spec's reference fingerprint, starts the fleet
// and daemon, and warms the hot specs into the program cache.
func (s *serveBench) setup() error {
	for _, sp := range hotSpecs {
		r, err := reference(sp)
		if err != nil {
			return err
		}
		s.hot = append(s.hot, r)
	}
	cold := coldSpecs()
	for _, i := range s.rng.Perm(len(cold)) {
		r, err := reference(cold[i])
		if err != nil {
			return err
		}
		s.cold = append(s.cold, r)
	}
	inst, err := s.start(nil)
	if err != nil {
		return err
	}
	s.inst = inst
	return nil
}

func (s *serveBench) close() error {
	if s.inst == nil {
		return nil
	}
	err := s.inst.close()
	s.inst = nil
	return err
}

// reference builds one spec locally, runs it on soft, verifies it
// against the sequential algorithm and fingerprints its declared buffers
// as the daemon returns them.
func reference(sp dist.ProgramSpec) (serveRef, error) {
	ws, err := workload.ByName(sp.Name)
	if err != nil {
		return serveRef{}, err
	}
	job := ws.Make(sp.Param)
	p, err := job.Build(sp.Kernels, sp.Unroll)
	if err != nil {
		return serveRef{}, err
	}
	job.RunSequential()
	job.ResetOutput()
	if _, err := rts.Run(p, rts.Options{Kernels: sp.Kernels}); err != nil {
		return serveRef{}, err
	}
	if err := job.Verify(); err != nil {
		return serveRef{}, fmt.Errorf("%s/%d/%d reference: %w", sp.Name, sp.Param, sp.Unroll, err)
	}
	svb := job.SharedBuffers()
	regions := make([]dist.RegionData, 0, len(p.Buffers))
	for _, decl := range p.Buffers {
		regions = append(regions, dist.RegionData{Buffer: decl.Name, Data: svb.Bytes(decl.Name)})
	}
	return serveRef{spec: sp, prog: p, fp: fingerprint(regions)}, nil
}

// fingerprint hashes the buffer names and bytes of a result.
func fingerprint(regions []dist.RegionData) uint64 {
	h := fnv.New64a()
	for _, r := range regions {
		h.Write([]byte(r.Buffer)) //nolint:errcheck // hash writes cannot fail
		h.Write([]byte{0})        //nolint:errcheck
		h.Write(r.Data)           //nolint:errcheck
	}
	return h.Sum64()
}

// serveInstance is one running daemon with its fleet and two tenants.
type serveInstance struct {
	flt       *dist.Fleet
	wait      func() []error
	srv       *serve.Server
	ln        net.Listener
	served    chan struct{}
	hot, cold *serve.Client
}

// start stands up a fleet, a daemon and both tenant connections, with
// the tracer's sink and registry attached when tr is set, and warms the
// hot specs into the cache (checking their results).
func (s *serveBench) start(tr *tracer) (*serveInstance, error) {
	resolve := serve.WorkloadResolver()
	fopt := dist.Options{}
	sopt := serve.Options{ProgramCache: serveCache}
	if tr != nil {
		inner := resolve
		resolve = func(sp dist.ProgramSpec) (*core.Program, *cellsim.SharedVariableBuffer, error) {
			t := time.Now()
			p, svb, err := inner(sp)
			tr.span("workload.build", t)
			return p, svb, err
		}
		fopt.Sink, fopt.Metrics = tr.rec, tr.reg
		sopt.Sink, sopt.Metrics = tr.rec, tr.reg
	}
	sopt.Resolver = resolve
	flt, wait, err := dist.NewLocalFleet(serveNodes, serveKPN, resolve, fopt)
	if err != nil {
		return nil, err
	}
	in := &serveInstance{flt: flt, wait: wait, served: make(chan struct{})}
	in.srv, err = serve.New(flt, sopt)
	if err != nil {
		flt.Close() //nolint:errcheck // the New error is the one to report
		wait()
		return nil, err
	}
	in.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		in.srv.Close() //nolint:errcheck
		flt.Close()    //nolint:errcheck
		wait()
		return nil, err
	}
	go func() {
		defer close(in.served)
		in.srv.Serve(in.ln) //nolint:errcheck // returns when the listener closes
	}()
	if in.hot, err = serve.Dial(in.ln.Addr().String(), "hot"); err == nil {
		in.cold, err = serve.Dial(in.ln.Addr().String(), "cold")
	}
	if err == nil {
		for _, r := range s.hot {
			if err = submitAndCheck(in.hot, r); err != nil {
				break
			}
		}
	}
	if err != nil {
		in.close() //nolint:errcheck // the start error is the one to report
		return nil, err
	}
	return in, nil
}

// submitAndCheck submits one spec, waits for it and checks its result.
func submitAndCheck(c *serve.Client, r serveRef) error {
	p, err := c.Submit(r.spec, nil)
	if err != nil {
		return err
	}
	out, err := p.Wait()
	if err != nil {
		return err
	}
	return checkOutcome(out, r)
}

func checkOutcome(out *serve.Outcome, r serveRef) error {
	if out.Err != "" {
		return fmt.Errorf("%s/%d/%d failed: %s", r.spec.Name, r.spec.Param, r.spec.Unroll, out.Err)
	}
	if fingerprint(out.Regions) != r.fp {
		return fmt.Errorf("%s/%d/%d: result bytes differ from the verified replica", r.spec.Name, r.spec.Param, r.spec.Unroll)
	}
	return nil
}

// close disconnects the tenants, then shuts the daemon and fleet down
// and waits for every goroutine they started.
func (in *serveInstance) close() error {
	var errs []error
	for _, c := range []*serve.Client{in.hot, in.cold} {
		if c != nil {
			c.Close() //nolint:errcheck // the daemon side reports nothing to act on
		}
	}
	in.ln.Close() //nolint:errcheck // Serve returns on close
	<-in.served
	errs = append(errs, in.srv.Close(), in.flt.Close())
	for i, err := range in.wait() {
		if err != nil {
			errs = append(errs, fmt.Errorf("node %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// request is one submission's record.
type request struct {
	cold     bool
	due      time.Time
	sent     time.Time
	received time.Time
	exec     time.Duration
	err      error
}

// serveAcc collects finished requests from the waiter goroutines.
type serveAcc struct {
	mu   sync.Mutex
	reqs []request
	wg   sync.WaitGroup
}

func (a *serveAcc) add(r request) {
	a.mu.Lock()
	a.reqs = append(a.reqs, r)
	a.mu.Unlock()
}

// send submits r's spec at its due time and hands the pending result to
// a waiter goroutine, which checks it and records the request.
func (a *serveAcc) send(c *serve.Client, ref serveRef, req request, tr *tracer) {
	if d := time.Until(req.due); d > 0 {
		time.Sleep(d)
	}
	req.sent = time.Now()
	p, err := c.Submit(ref.spec, nil)
	if err != nil {
		req.err, req.received = err, time.Now()
		a.add(req)
		return
	}
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		out, err := p.Wait()
		req.received = time.Now()
		if err == nil {
			req.exec = out.Elapsed
			err = checkOutcome(out, ref)
			tr.span("workload.verify", req.received)
		}
		req.err = err
		a.add(req)
	}()
}

// schedule returns n due times at an average rate from start, each
// jittered by the seed within half an interval, so they stay ordered.
func schedule(rng *rand.Rand, start time.Time, rate float64, n int) []time.Time {
	out := make([]time.Time, n)
	for i := range out {
		at := (float64(i) + 0.5*rng.Float64()) / rate
		out[i] = start.Add(time.Duration(at * float64(time.Second)))
	}
	return out
}

// openLoop runs both tenants' schedules for d and returns every request.
// The cold tenant starts its spec order over each time.
func (s *serveBench) openLoop(in *serveInstance, d time.Duration, tr *tracer) []request {
	start := time.Now().Add(10 * time.Millisecond)
	hotDue := schedule(s.rng, start, serveHotRate, int(d.Seconds()*serveHotRate))
	coldDue := schedule(s.rng, start, serveColdRate, int(d.Seconds()*serveColdRate))
	hotSeq := s.hotSequence(len(hotDue))
	acc := &serveAcc{}
	var senders sync.WaitGroup
	senders.Add(2)
	go func() {
		defer senders.Done()
		for i, due := range hotDue {
			acc.send(in.hot, s.hot[hotSeq[i]], request{due: due}, tr)
		}
	}()
	go func() {
		defer senders.Done()
		for i, due := range coldDue {
			acc.send(in.cold, s.cold[i%len(s.cold)], request{cold: true, due: due}, tr)
		}
	}()
	senders.Wait()
	acc.wg.Wait()
	return acc.reqs
}

// hotSequence returns n indices into the hot specs, in hotMix proportion,
// each block of len(hotMix) shuffled by the seed.
func (s *serveBench) hotSequence(n int) []int {
	out := make([]int, 0, n+len(hotMix))
	for len(out) < n {
		for _, i := range s.rng.Perm(len(hotMix)) {
			out = append(out, hotMix[i])
		}
	}
	return out[:n]
}

// closedLoop runs serveClosedRefs callers on the hot connection, each
// submitting its next hot spec as soon as the previous one returns, for
// d. It returns the programs completed, the time from the first Submit
// to the last Result, and the attempted and failed counts.
func (s *serveBench) closedLoop(in *serveInstance, d time.Duration) (completed int, elapsed time.Duration, attempted, failed int) {
	seq := s.hotSequence(int(d.Seconds()*1000) + 1)
	var (
		mu   sync.Mutex
		next int
		last time.Time
		wg   sync.WaitGroup
	)
	start := time.Now()
	stop := start.Add(d)
	for c := 0; c < serveClosedRefs; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				mu.Lock()
				ref := s.hot[seq[next%len(seq)]]
				next++
				attempted++
				mu.Unlock()
				err := submitAndCheck(in.hot, ref)
				now := time.Now()
				mu.Lock()
				if err != nil {
					failed++
				} else {
					completed++
					last = now
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if completed == 0 {
		return 0, 0, attempted, failed
	}
	return completed, last.Sub(start), attempted, failed
}

// measure alternates the two phases once per segment: an open-loop
// stretch whose hot requests make up the segment's latency samples (the
// cold ones are summarized apart), then a closed-loop stretch on the hot
// set. Interleaving them makes both see the same stretches of a shared
// host. A traced phase runs on its own daemon and fleet, built with the
// tracer's sink and registry attached.
func (s *serveBench) measure(d time.Duration, tr *tracer) (_ *phase, err error) {
	in := s.inst
	if tr != nil {
		if in, err = s.start(tr); err != nil {
			return nil, err
		}
		defer func() {
			if cerr := in.close(); err == nil && cerr != nil {
				err = fmt.Errorf("traced daemon teardown: %w", cerr)
			}
		}()
	}
	before := in.srv.Snapshot()
	eventsBefore := tr.events()
	open := time.Duration(float64(d)*serveOpenShare) / segments
	closed := d/segments - open
	ph := &phase{detail: map[string]any{}}
	var (
		reqs       []request
		openSpans  [][2]time.Duration // recorder-clock bounds of each open stretch
		completed  int
		closedTime time.Duration
	)
	for seg := 0; seg < segments; seg++ {
		from := tr.now()
		segReqs := s.openLoop(in, open, tr)
		openSpans = append(openSpans, [2]time.Duration{from, tr.now()})
		sort.Slice(segReqs, func(i, j int) bool { return segReqs[i].due.Before(segReqs[j].due) })
		var lat []float64
		for _, r := range segReqs {
			if r.err == nil && !r.cold {
				lat = append(lat, msBetween(r.due, r.received))
			}
		}
		ph.segs = append(ph.segs, split(lat, serveTailSplit)...)
		reqs = append(reqs, segReqs...)
		n, elapsed, attempted, failed := s.closedLoop(in, closed)
		completed += n
		closedTime += elapsed
		ph.attempted += attempted
		ph.failed += failed
	}
	after := in.srv.Snapshot()
	ph.rate = ratio(float64(completed), closedTime.Seconds())
	ph.attempted += len(reqs)

	var all, hot, cold, lag, exec, hotExec, coldExec []float64
	for _, r := range reqs {
		if r.err != nil {
			ph.failed++
			ph.detail["first_error"] = r.err.Error()
			continue
		}
		l := msBetween(r.due, r.received)
		all = append(all, l)
		lag = append(lag, msBetween(r.due, r.sent))
		x := float64(r.exec.Nanoseconds()) / 1e6
		exec = append(exec, x)
		if r.cold {
			cold, coldExec = append(cold, l), append(coldExec, x)
		} else {
			hot, hotExec = append(hot, l), append(hotExec, x)
		}
	}
	h, c := summarize(hot), summarize(cold)
	ph.detail["serve.hot_p50_ms"], ph.detail["serve.hot_tail_ms"], ph.detail["serve.hot"] = h.P50, h.Tail, h
	ph.detail["serve.cold_p50_ms"], ph.detail["serve.cold_tail_ms"], ph.detail["serve.cold"] = c.P50, c.Tail, c
	ph.detail["serve.saturated_pps"] = ph.rate
	ph.detail["serve.gen_lag_p50_ms"] = median(lag)
	ph.detail["serve.cache_hits"] = after.CacheHits - before.CacheHits
	ph.detail["serve.cache_misses"] = after.CacheMisses - before.CacheMisses
	ph.detail["serve.rejected"] = after.Rejected - before.Rejected
	if tr == nil {
		return ph, nil
	}

	progs := make([]*core.Program, 0, len(s.cold))
	for _, r := range s.cold {
		progs = append(progs, r.prog)
	}
	admitMS, tablesUS, err := lintAndTables(tr, progs, serveKernels, 1)
	if err != nil {
		return nil, err
	}
	// From outside, an open-loop request splits into the generator's lag
	// and the daemon's own submission-to-result span (its ServeResult
	// events); the client-side wire and demultiplexing stay unattributed.
	var daemonMS float64
	for _, e := range tr.rec.Events() {
		if e.Kind != obs.ServeResult {
			continue
		}
		for _, sp := range openSpans {
			if e.Start >= sp[0] && e.Start < sp[1] {
				daemonMS += float64(e.Dur.Nanoseconds()) / 1e6
			}
		}
	}
	e2e := sum(all)
	ph.spanFrac = ratio(sum(lag)+daemonMS, e2e)
	hits, misses := float64(after.CacheHits-before.CacheHits), float64(after.CacheMisses-before.CacheMisses)
	ph.layers = map[string]float64{
		"workload.build_us":    tr.meanUS("workload.build"),
		"workload.verify_us":   tr.meanUS("workload.verify"),
		"ddmlint.admit_ms":     admitMS,
		"tsu.tables_us":        tablesUS,
		"dist.exec_frac":       ratio(sum(exec), e2e),
		"serve.hot_wait_frac":  1 - ratio(sum(hotExec), sum(hot)),
		"serve.cold_wait_frac": 1 - ratio(sum(coldExec), sum(cold)),
		"serve.cache_hit_frac": ratio(hits, hits+misses),
		"serve.rejected":       float64(after.Rejected - before.Rejected),
		"gen.lag_frac":         ratio(sum(lag), e2e),
		"obs.events_per_op":    ratio(float64(tr.events()-eventsBefore), float64(ph.attempted)),
	}
	return ph, nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
