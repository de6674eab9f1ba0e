package rts

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tflux/internal/core"
	"tflux/internal/obs"
	"tflux/internal/stream"
	"tflux/internal/tsu"
)

// RunStream executes a streaming pipeline: events pulled from src are
// admitted into windows of p.Window events, each window fires through
// the per-window Synchronization Graph on a recycled tsu.WindowedSM
// slot, and completed windows retire (export, latency accounting, slot
// release). It returns when the source is exhausted and every admitted
// window has retired.
//
// The loop interleaves four activities:
//
//   - injection: a dedicated goroutine pulls paced events from src and
//     dispatches entry-stage instances, applying the backpressure policy
//     at window-slot exhaustion. A source that declares it never waits
//     (stream.Rater with Rate() == 0) has its entries sent in runs of up
//     to entryChunk consecutive events of one window; any other source
//     has each entry sent as it arrives;
//   - firing: opt.Workers goroutines drain a shared ready channel,
//     running stage bodies and propagating decrements; a worker runs
//     the first consumer its own decrements fire next, and sends only
//     the surplus to the channel;
//   - retirement: the worker that fires a window's last instance
//     observes per-event admission→retire latency, applies the
//     pipeline's Export, and releases the slot;
//   - padding: a partial final window is completed with pad instances
//     (entry body skipped, graph flow intact) so it can retire.
//
// Sequence numbers from src must be contiguous from 0: event seq
// belongs to window seq/W at local index seq%W. With the Shed policy,
// whole windows are dropped at admission when no slot is free; their
// events are consumed from the source and counted as shed.
func RunStream(p *stream.Pipeline, src stream.Source, opt stream.Options) (stream.Stats, error) {
	if p == nil || src == nil {
		return stream.Stats{}, fmt.Errorf("rts: RunStream needs a pipeline and a source")
	}
	block, err := p.Block()
	if err != nil {
		return stream.Stats{}, err
	}
	slots := opt.Slots
	if slots <= 0 {
		slots = stream.DefaultSlots
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	inj, err := stream.NewInjector(opt.Faults, len(p.Stages), opt.FaultLog)
	if err != nil {
		return stream.Stats{}, err
	}
	wsm, err := tsu.NewWindowed(block, slots)
	if err != nil {
		return stream.Stats{}, err
	}
	W := int64(p.Window)
	entry := block.Templates[0].ID

	// Metrics go to the caller's registry when given; otherwise to a
	// private one, so Stats quantiles work either way.
	reg := opt.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	var (
		cInjected = reg.Counter("stream.injected")
		cPadded   = reg.Counter("stream.padded")
		cShedEv   = reg.Counter("stream.shed_events")
		cShedWin  = reg.Counter("stream.shed_windows")
		cOpened   = reg.Counter("stream.windows_opened")
		cRetired  = reg.Counter("stream.windows_retired")
		gInflight = reg.Gauge("stream.inflight_windows")
		hLatency  = reg.Histogram("stream.event_latency_ns", obs.LatencyBuckets)
	)

	// Per-slot state recycled with the SM slot: the window's WindowRef
	// (needed at release) and per-event admission stamps, as offsets
	// from start (one monotonic clock read each). Writes happen before
	// the entry dispatch (injector side) and reads after the firing
	// closure completes (retiring worker), so the channel send plus the
	// decrement chain order them.
	refs := make([]tsu.WindowRef, slots)
	admit := make([][]time.Duration, slots)
	for i := range admit {
		admit[i] = make([]time.Duration, W)
	}

	// padFrom is the first pad sequence number; MaxInt64 until the
	// source ends mid-window. Entry bodies are skipped at and past it.
	var padFrom atomic.Int64
	padFrom.Store(math.MaxInt64)

	// The work channel holds every dispatched-but-unfired instance, as
	// runs of at least one. Its capacity is the worst case — all live
	// windows fully pending, one instance per element — so worker
	// self-pushes never block and cannot deadlock. Keeping one fired
	// consumer on its worker and batching entries into runs only remove
	// sends, so the bound is still an upper bound on the channel's
	// occupancy. WorkCapacity is the shared derivation of that bound
	// (ddmlint's budget check verifies the same formula); a capacity
	// that overflows or exceeds what a chan can hold voids the
	// no-deadlock argument, so refuse to run.
	capWork, capOK := stream.WorkCapacity(int64(slots), wsm.PerWindow(), int64(workers))
	if !capOK || capWork > math.MaxInt32 {
		return stream.Stats{}, fmt.Errorf("rts: work channel capacity %d slots × %d instances + %d workers voids the no-deadlock bound",
			slots, wsm.PerWindow(), workers)
	}
	work := make(chan entryRun, capWork)
	freeCh := make(chan struct{}, slots)
	wsm.SetOnFree(func() {
		select {
		case freeCh <- struct{}{}:
		default:
		}
	})

	var (
		opened    atomic.Int64
		retired   atomic.Int64
		injDone   atomic.Bool
		closeOnce sync.Once
	)
	closeWork := func() { closeOnce.Do(func() { close(work) }) }

	// retire runs on the worker whose completion finished a window's
	// firing closure: latency per admitted (non-pad) event, export while
	// the slot's data is still valid, release.
	start := time.Now()
	retire := func(win int64, slot int) {
		now := time.Since(start)
		pf := padFrom.Load()
		for l := int64(0); l < W; l++ {
			if win*W+l < pf {
				hLatency.ObserveDuration(now - admit[slot][l])
			}
		}
		if p.Export != nil {
			p.Export(win, slot)
		}
		// The gauge drops before Release: a freed slot can be reopened
		// by the injector at once, and MaxInFlight must never count the
		// old and the new occupant together.
		gInflight.Add(-1)
		wsm.Release(refs[slot])
		cRetired.Inc()
		if r := retired.Add(1); injDone.Load() && r == opened.Load() {
			closeWork()
		}
	}

	// Each worker tallies the consumers its decrements fire and
	// publishes the tally once, when it exits.
	fired := make([]int64, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(fired *int64) {
			defer wg.Done()
			var buf []core.Instance
			var tally int64
			for r := range work {
				for k := core.Context(0); k < r.n; k++ {
					inst := r.first
					inst.Ctx += k
					// Run inst, then keep running on this worker the
					// first consumer each completion fires; only the
					// surplus goes through the shared channel. Consumers
					// are window-local, so the chain stays in one slot,
					// and a completion that fires a consumer cannot
					// retire its window (the consumer is still pending):
					// the chain's completions are counted once, at its
					// end, and only that count can retire the window.
					var chain int64
					for {
						slot, local := wsm.Decode(inst)
						stage := int(inst.Thread - entry)
						win := wsm.Window(slot)
						seq := win*W + int64(local)
						if d := inj.Delay(stage); d > 0 {
							time.Sleep(d)
						}
						if body := p.Stages[stage].Body; body != nil && !(stage == 0 && seq >= padFrom.Load()) {
							body(stream.Ctx{Window: win, Slot: slot, Local: local, Seq: seq})
						}
						buf = wsm.AppendConsumers(buf[:0], inst)
						next, kept := core.Instance{}, false
						for _, tgt := range buf {
							if !wsm.Decrement(tgt) {
								continue
							}
							tally++
							if kept {
								work <- entryRun{first: tgt, n: 1}
							} else {
								next, kept = tgt, true
							}
						}
						chain++
						if !kept {
							if wsm.Done(slot, chain) {
								retire(win, slot)
							}
							break
						}
						inst = next
					}
				}
			}
			*fired = tally
		}(&fired[i])
	}

	// Injection loop (this goroutine): windows open lazily at their
	// first event, so backpressure applies at window boundaries. Entries
	// collect in pend, a run of consecutive locals of the current
	// window, sent when it reaches chunk, when the window's last local
	// joins it, and when the source ends. A run therefore never spans a
	// window, and the injector never waits for a free slot while it
	// holds entries; with chunk 1 every entry is sent as it arrives.
	chunk := core.Context(1)
	if r, ok := src.(stream.Rater); ok && r.Rate() == 0 {
		chunk = entryChunk
	}
	var (
		curWin  int64 = -1
		curRef  tsu.WindowRef
		curShed bool
		curNext core.Context // next local index in the current window
		pend    entryRun
	)
	add := func(local core.Context) {
		if pend.n == 0 {
			pend.first = wsm.Encode(entry, curRef, local)
		}
		pend.n++
		if pend.n == chunk || int64(local) == W-1 {
			work <- pend
			pend.n = 0
		}
	}
	for {
		seq, ok := src.Next()
		if !ok {
			break
		}
		win := seq / W
		if win != curWin {
			curWin, curNext, curShed = win, 0, false
			ref, got := wsm.Open(win)
			if !got && opt.Policy == stream.Shed {
				curShed = true
				cShedWin.Inc()
			}
			for !got && !curShed {
				<-freeCh
				ref, got = wsm.Open(win)
			}
			if got {
				curRef = ref
				refs[ref.Slot] = ref
				opened.Add(1)
				cOpened.Inc()
				gInflight.Add(1)
			}
		}
		if curShed {
			cShedEv.Inc()
			continue
		}
		local := core.Context(seq % W)
		admit[curRef.Slot][local] = time.Since(start)
		cInjected.Inc()
		curNext = local + 1
		add(local)
	}
	// Pad a partial final window so its firing closure can complete;
	// the pads join the pending run, so the last one flushes it.
	if curWin >= 0 && !curShed && int64(curNext) < W {
		padFrom.Store(curWin*W + int64(curNext))
		for l := curNext; int64(l) < W; l++ {
			cPadded.Inc()
			add(l)
		}
	}
	injDone.Store(true)
	if retired.Load() == opened.Load() {
		closeWork()
	}
	wg.Wait()

	elapsed := time.Since(start)
	st := stream.Stats{
		Events:      cInjected.Value(),
		Padded:      cPadded.Value(),
		ShedEvents:  cShedEv.Value(),
		ShedWindows: cShedWin.Value(),
		Windows:     cRetired.Value(),
		// Entry instances fire on arrival, the rest on decrement.
		Fired:       cInjected.Value() + cPadded.Value(),
		P50:         time.Duration(hLatency.Quantile(0.50)),
		P95:         time.Duration(hLatency.Quantile(0.95)),
		P99:         time.Duration(hLatency.Quantile(0.99)),
		Elapsed:     elapsed,
		MaxInFlight: gInflight.Max(),
		Faults:      opt.FaultLog.Count(),
	}
	for _, f := range fired {
		st.Fired += f
	}
	if r, ok := src.(stream.Rater); ok {
		st.OfferedEPS = r.Rate()
	}
	if s := elapsed.Seconds(); s > 0 {
		st.AchievedEPS = float64(st.Events) / s
	}
	reg.Counter("stream.offered_eps").Set(int64(st.OfferedEPS))
	reg.Counter("stream.achieved_eps").Set(int64(st.AchievedEPS))
	return st, nil
}

// entryChunk is the most entries of one window the injector sends as a
// single run when the source never waits. It amortizes the shared
// channel's send over the run, as TFluxCell's CommandBuffers amortize
// TSU traffic.
const entryChunk = 32

// entryRun is one work-channel element: n instances of one template at
// consecutive contexts of one window slot, starting at first. The
// injector sends runs of entries; workers send each surplus consumer
// as a run of one.
type entryRun struct {
	first core.Instance
	n     core.Context
}
