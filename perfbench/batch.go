package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"tflux/internal/cellsim"
	"tflux/internal/core"
	"tflux/internal/ddmlint"
	"tflux/internal/dist"
	"tflux/internal/obs"
	"tflux/internal/rts"
	"tflux/internal/tsu"
	"tflux/internal/workload"
)

// The batch workload is a closed loop of rounds. One round is a suite
// pass on each backend in turn — sequential, soft (legacy TSU emulator),
// soft with 2 TSU shards, cell with 2 SPEs, dist with 2 loopback nodes ×
// 1 kernel — and a suite pass builds, runs and verifies every Table 1
// program at Small native size and unroll 1 (FFT is not run on cell, as
// in Figure 7). At unroll 1 the TSU and the scheduler, not the DThread
// bodies, are the blocking steps. The seed shuffles the program order of
// each pass; the program inputs are the generator's fixed ones.

const (
	batchKernels = 2
	batchUnroll  = 1
	batchNodes   = 2
)

// backend is one way of running a suite program.
type backend int

const (
	beSeq backend = iota
	beSoft
	beSharded
	beCell
	beDist
	numBackends
)

var backendNames = [numBackends]string{"seq", "soft", "sharded", "cell", "dist"}

// batchProg is one suite program with a long-lived job per backend. Each
// job ran the sequential reference at set-up, so Verify compares against
// it without recomputing.
type batchProg struct {
	spec  workload.Spec
	param int
	jobs  [numBackends]workload.Job // jobs[beCell] is nil when cell skips it
	// distView is jobs[beDist]'s buffers: dist runs build fresh replicas,
	// and the coordinator's final bytes are copied here to be verified.
	distView *cellsim.SharedVariableBuffer
}

type batch struct {
	rng   *rand.Rand
	progs []*batchProg
}

func newBatch(seed int64) *batch {
	return &batch{rng: rand.New(rand.NewSource(seed))}
}

// setup builds a job and its sequential reference per program and
// backend, then runs one untimed round so lazy set-up and caches are warm
// before timing; that round's failures fail the set-up.
func (b *batch) setup() error {
	for _, spec := range workload.Suite() {
		sizes, _ := spec.Sizes(workload.Native)
		bp := &batchProg{spec: spec, param: sizes[workload.Small]}
		_, onCell := spec.Sizes(workload.Cell)
		for be := beSeq; be < numBackends; be++ {
			if be == beCell && !onCell {
				continue
			}
			job := spec.Make(bp.param)
			job.RunSequential()
			bp.jobs[be] = job
		}
		// Some jobs size their output buffers at Build, so shape the dist
		// reference job like the replicas before taking its buffer views.
		if _, err := bp.jobs[beDist].Build(batchKernels, batchUnroll); err != nil {
			return err
		}
		bp.distView = bp.jobs[beDist].SharedBuffers()
		// The sequential pass checks its fresh reference against a parallel
		// output that already verified, so produce one now.
		if err := b.runParallel(beSoft, bp, bp.jobs[beSeq], nil, &batchAcc{}); err != nil {
			return err
		}
		b.progs = append(b.progs, bp)
	}
	acc := &batchAcc{}
	b.round(nil, acc)
	if acc.failed > 0 {
		return fmt.Errorf("warm-up round: %v", acc.firstErr)
	}
	return nil
}

func (b *batch) close() error { return nil }

// batchAcc accumulates what the runs of one phase returned.
type batchAcc struct {
	passMS    [numBackends][]float64
	roundMS   []float64
	attempted int
	failed    int
	firstErr  error

	fired, runTime [numBackends]float64 // instances and summed Run spans
	decrements     float64              // legacy TSU decrements
	crossShard     float64              // sharded cross-shard decrements
	shardDecrement float64              // sharded decrements
	tubPush        float64
	tubTryMiss     float64
	idle, busyCap  float64 // kernel idle time and kernels×elapsed, soft+sharded
	imbalance      []float64
	dmaBytes       float64
	commands       float64
	msgs           float64
	bytesOut       float64
	cacheHit       float64
	cacheMiss      float64
	events         float64
}

func (a *batchAcc) fail(err error) {
	a.failed++
	if a.firstErr == nil {
		a.firstErr = err
	}
}

// round runs one suite pass on every backend and records the pass and
// round times.
func (b *batch) round(tr *tracer, acc *batchAcc) {
	t0 := time.Now()
	for be := beSeq; be < numBackends; be++ {
		order := b.rng.Perm(len(b.progs))
		p0 := time.Now()
		for _, i := range order {
			bp := b.progs[i]
			if bp.jobs[be] == nil {
				continue
			}
			acc.attempted++
			var err error
			switch be {
			case beSeq:
				err = b.runSeq(bp, tr)
			case beDist:
				err = b.runDist(bp, tr, acc)
			default:
				err = b.runParallel(be, bp, bp.jobs[be], tr, acc)
			}
			if err != nil {
				acc.fail(fmt.Errorf("%s on %s: %w", bp.spec.Name, backendNames[be], err))
			}
		}
		acc.passMS[be] = append(acc.passMS[be], msSince(p0))
	}
	acc.roundMS = append(acc.roundMS, msSince(t0))
}

func msSince(t0 time.Time) float64 {
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// runSeq runs the original sequential algorithm and checks that its
// output still matches the verified parallel output.
func (b *batch) runSeq(bp *batchProg, tr *tracer) error {
	job := bp.jobs[beSeq]
	t := time.Now()
	job.RunSequential()
	t = tr.span("workload.seq", t)
	err := job.Verify()
	tr.span("workload.verify", t)
	return err
}

// runParallel builds, runs and verifies one program on soft, sharded or
// cell.
func (b *batch) runParallel(be backend, bp *batchProg, job workload.Job, tr *tracer, acc *batchAcc) error {
	t := time.Now()
	p, err := job.Build(batchKernels, batchUnroll)
	t = tr.span("workload.build", t)
	if err != nil {
		return err
	}
	job.ResetOutput()
	var sink obs.Sink
	var reg *obs.Registry
	if tr != nil {
		sink, reg = tr.rec, tr.reg
	}
	switch be {
	case beSoft, beSharded:
		opt := rts.Options{Kernels: batchKernels, Obs: sink, Metrics: reg}
		if be == beSharded {
			opt.TSUShards = batchKernels
		}
		st, err := rts.Run(p, opt)
		acc.runTime[be] += time.Since(t).Seconds()
		t = tr.span("rts.run", t)
		if err != nil {
			return err
		}
		acc.fired[be] += float64(st.TSU.Fired)
		for _, idle := range st.Idle {
			acc.idle += idle.Seconds()
		}
		acc.busyCap += float64(st.Kernels) * st.Elapsed.Seconds()
		if be == beSoft {
			acc.decrements += float64(st.TSU.Decrements)
			acc.tubPush += float64(st.TUB.Pushes)
			acc.tubTryMiss += float64(st.TUB.TryMisses)
		} else {
			acc.crossShard += float64(st.CrossShardDecrements)
			acc.shardDecrement += float64(st.TSU.Decrements)
			acc.imbalance = append(acc.imbalance, imbalance(st.ShardFired))
		}
	case beCell:
		st, err := cellsim.Run(p, job.SharedBuffers(), cellsim.Config{SPEs: batchKernels, Obs: sink, Metrics: reg})
		acc.runTime[be] += time.Since(t).Seconds()
		t = tr.span("cellsim.run", t)
		if err != nil {
			return err
		}
		acc.fired[be] += float64(st.TSU.Fired)
		acc.dmaBytes += float64(st.DMABytesIn + st.DMABytesOut)
		acc.commands += float64(st.Commands)
	}
	if tr != nil {
		acc.events += float64(tr.rec.Len())
	}
	err = job.Verify()
	tr.span("workload.verify", t)
	return err
}

// imbalance is the busiest shard's fired count over the mean, minus one.
func imbalance(fired []int64) float64 {
	var sum, hi int64
	for _, f := range fired {
		sum += f
		if f > hi {
			hi = f
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(hi)*float64(len(fired))/float64(sum) - 1
}

// runDist runs one program through the dist local-run path: fresh
// replicas on 2 loopback worker nodes and the coordinator, whose final
// bytes are copied onto the program's reference job and verified.
func (b *batch) runDist(bp *batchProg, tr *tracer, acc *batchAcc) error {
	var (
		mu       sync.Mutex
		buildErr error
	)
	build := func() (*core.Program, *cellsim.SharedVariableBuffer) {
		job := bp.spec.Make(bp.param)
		p, err := job.Build(batchKernels, batchUnroll)
		if err != nil {
			mu.Lock()
			buildErr = err
			mu.Unlock()
			return nil, nil
		}
		return p, job.SharedBuffers()
	}
	opt := dist.Options{}
	if tr != nil {
		opt.Sink, opt.Metrics = tr.rec, tr.reg
	}
	t := time.Now()
	st, svb, err := dist.RunLocalOpts(build, batchNodes, batchKernels/batchNodes, opt)
	acc.runTime[beDist] += time.Since(t).Seconds()
	t = tr.span("dist.run", t)
	mu.Lock()
	if buildErr != nil {
		err = buildErr
	}
	mu.Unlock()
	if err != nil {
		return err
	}
	acc.fired[beDist] += float64(st.TSU.Fired)
	acc.msgs += float64(st.Messages)
	acc.bytesOut += float64(st.BytesOut)
	acc.cacheHit += float64(st.RegionCacheHits)
	acc.cacheMiss += float64(st.RegionCacheMisses)
	if tr != nil {
		acc.events += float64(tr.rec.Len())
	}
	for _, name := range svb.Names() {
		dst, src := bp.distView.Bytes(name), svb.Bytes(name)
		if len(dst) != len(src) {
			return fmt.Errorf("buffer %s: coordinator holds %d bytes, reference %d", name, len(src), len(dst))
		}
		copy(dst, src)
	}
	err = bp.jobs[beDist].Verify()
	tr.span("workload.verify", t)
	return err
}

// measure runs rounds until d has passed. A round belongs to the
// segment its start falls in.
func (b *batch) measure(d time.Duration, tr *tracer) (*phase, error) {
	acc := &batchAcc{}
	ph := &phase{segs: make([][]float64, segments)}
	start := time.Now()
	for {
		since := time.Since(start)
		if since >= d {
			break
		}
		seg := int(segments * since / d)
		b.round(tr, acc)
		ph.segs[seg] = append(ph.segs[seg], acc.roundMS[len(acc.roundMS)-1])
	}
	wall := time.Since(start)
	ph.rate = float64(acc.attempted-acc.failed) / wall.Seconds()
	ph.attempted, ph.failed = acc.attempted, acc.failed
	ph.detail = map[string]any{"rounds": len(acc.roundMS)}
	for be := beSeq; be < numBackends; be++ {
		ph.detail["batch."+backendNames[be]+"_ms"] = median(acc.passMS[be])
	}
	if acc.firstErr != nil {
		ph.detail["first_error"] = acc.firstErr.Error()
	}
	if tr == nil {
		return ph, nil
	}

	// Every call a round makes is inside one layer span, so what stays
	// unattributed is the benchmark's own bookkeeping between calls.
	ph.spanFrac = tr.total().Seconds() / wall.Seconds()
	admitMS, tablesUS, err := b.lintAndTables(tr)
	if err != nil {
		return nil, err
	}
	cellPasses := float64(len(acc.passMS[beCell]))
	distPasses := float64(len(acc.passMS[beDist]))
	ph.layers = map[string]float64{
		"workload.build_us":          tr.meanUS("workload.build"),
		"workload.verify_us":         tr.meanUS("workload.verify"),
		"ddmlint.admit_ms":           admitMS,
		"tsu.tables_us":              tablesUS,
		"tsu.decrements_per_inst":    ratio(acc.decrements, acc.fired[beSoft]),
		"tsu.cross_shard_frac":       ratio(acc.crossShard, acc.shardDecrement),
		"tub.try_miss_frac":          ratio(acc.tubTryMiss, acc.tubPush),
		"rts.soft_inst_per_s":        ratio(acc.fired[beSoft], acc.runTime[beSoft]),
		"rts.sharded_inst_per_s":     ratio(acc.fired[beSharded], acc.runTime[beSharded]),
		"rts.idle_frac":              ratio(acc.idle, acc.busyCap),
		"rts.shard_imbalance":        mean(acc.imbalance),
		"cellsim.inst_per_s":         ratio(acc.fired[beCell], acc.runTime[beCell]),
		"cellsim.dma_bytes":          ratio(acc.dmaBytes, cellPasses),
		"cellsim.commands_per_inst":  ratio(acc.commands, acc.fired[beCell]),
		"dist.inst_per_s":            ratio(acc.fired[beDist], acc.runTime[beDist]),
		"dist.msgs_per_inst":         ratio(acc.msgs, acc.fired[beDist]),
		"dist.bytes_out":             ratio(acc.bytesOut, distPasses),
		"dist.region_cache_hit_frac": ratio(acc.cacheHit, acc.cacheHit+acc.cacheMiss),
		"obs.events_per_op":          ratio(acc.events, float64(acc.attempted)),
	}
	return ph, nil
}

// lintAndTables times the admission lint and the frozen-table build on
// each suite program, as a daemon would run them on a cold submission.
func (b *batch) lintAndTables(tr *tracer) (admitMS, tablesUS float64, err error) {
	var progs []*core.Program
	for _, bp := range b.progs {
		p, err := bp.spec.Make(bp.param).Build(batchKernels, batchUnroll)
		if err != nil {
			return 0, 0, err
		}
		progs = append(progs, p)
	}
	return lintAndTables(tr, progs, batchKernels, 3)
}

// lintAndTables calls ddmlint.Admit and tsu.NewTables on each program
// reps times and returns their mean spans.
func lintAndTables(tr *tracer, progs []*core.Program, kernels, reps int) (admitMS, tablesUS float64, err error) {
	for r := 0; r < reps; r++ {
		for _, p := range progs {
			t := time.Now()
			err := ddmlint.Admit(p)
			t = tr.span("ddmlint.admit", t)
			if err != nil {
				return 0, 0, fmt.Errorf("admission lint: %w", err)
			}
			_, err = tsu.NewTables(p, kernels, tsu.Config{})
			tr.span("tsu.tables", t)
			if err != nil {
				return 0, 0, err
			}
		}
	}
	return tr.meanUS("ddmlint.admit") / 1e3, tr.meanUS("tsu.tables"), nil
}
