package tsu

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"tflux/internal/core"
)

// barrierRandomProgram builds a random multi-block program in which
// broadcast (OneToAll) arcs share their consumers with one-to-one, gather,
// scatter and reduction arcs, and sometimes with a second broadcast.
// Instance counts run from 1 to 12, so both compiled broadcasts
// (P·C > P + C) and ones left expanded (1→C forks, 2×2 exchanges) occur;
// some templates are affinity-pinned so barrier cells land on pinned
// kernels too.
func barrierRandomProgram(r *rand.Rand) (*core.Program, int64) {
	p := core.NewProgram("barrier")
	var total int64
	id := core.ThreadID(1)
	blocks := 1 + r.Intn(3)
	for bi := 0; bi < blocks; bi++ {
		b := p.AddBlock()
		var made []*core.Template
		n := 2 + r.Intn(4)
		for j := 0; j < n; j++ {
			t := core.NewTemplate(id, fmt.Sprintf("t%d", id), noop)
			id++
			t.Instances = core.Context(1 + r.Intn(12))
			if r.Intn(6) == 0 {
				t.Affinity = r.Intn(8)
			}
			total += int64(t.Instances)
			for a := 0; j > 0 && a < 1+r.Intn(3); a++ {
				prod := made[r.Intn(len(made))]
				kind := r.Intn(6)
				if a == 0 && r.Intn(4) != 0 {
					kind = 0 // mostly lead with the broadcast under test
				}
				switch kind {
				case 0, 1:
					prod.Then(t.ID, core.OneToAll{})
				case 2:
					if prod.Instances == t.Instances {
						prod.Then(t.ID, core.OneToOne{})
					} else {
						prod.Then(t.ID, core.Scatter{Fan: 1 + core.Context(r.Intn(3))})
					}
				case 3:
					prod.Then(t.ID, core.Gather{Fan: 1 + core.Context(r.Intn(3))})
				case 4:
					prod.Then(t.ID, core.Scatter{Fan: (t.Instances + prod.Instances - 1) / prod.Instances})
				default:
					prod.Then(t.ID, core.AllToOne{Target: core.Context(r.Intn(int(t.Instances)))})
				}
			}
			b.Add(t)
			made = append(made, t)
		}
	}
	return p, total
}

// compiledBroadcast is the static rule the engine compiles by: a
// broadcast arc becomes a barrier cell when P·C > P + C.
func compiledBroadcast(m core.Mapping, pInst, cInst core.Context) bool {
	_, ok := m.(core.OneToAll)
	p, c := int64(pInst), int64(cInst)
	return ok && p*c > p+c
}

// refTSU is the brute-force reference the barrier engine is checked
// against: one Ready Count per consumer instance, loaded from
// core.InDegrees and decremented per consumer along every arc's core
// mapping — the paper's Post-Processing Phase with no barrier cells. It
// also predicts the engine's Decrements from the compile rule: a compiled
// broadcast costs one update per producer completion plus C when its last
// producer completes, every other arc one per consumer target.
type refTSU struct {
	p         *core.Program
	s         *State // service IDs and TKT owners only
	blk       int
	counts    map[core.Instance]int
	completed map[core.ThreadID]core.Context // per template, current block
	remaining int64
	fired     map[core.Instance]bool
	predicted int64
	barriers  int // compiled broadcasts seen completing, whole run
	expanded  int // broadcasts left per-consumer, whole run
}

func newRefTSU(p *core.Program, s *State) *refTSU {
	return &refTSU{p: p, s: s, blk: -1, fired: make(map[core.Instance]bool)}
}

func (ref *refTSU) fire(dst []Ready, inst core.Instance) []Ready {
	if ref.fired[inst] {
		panic(fmt.Sprintf("reference fired %v twice", inst))
	}
	ref.fired[inst] = true
	return append(dst, Ready{Inst: inst, Kernel: ref.s.KernelOf(inst)})
}

// complete applies the completion of r and returns what became ready, in
// the order the paper's TSU surfaces it.
func (ref *refTSU) complete(r Ready) (ready []Ready, programDone bool) {
	s := ref.s
	if s.IsService(r.Inst) {
		if r.Inst.Thread == s.InletID(ref.blk+1) {
			ref.blk++
			b := ref.p.Blocks[ref.blk]
			ref.counts = make(map[core.Instance]int)
			ref.completed = make(map[core.ThreadID]core.Context)
			ref.remaining = b.TotalInstances()
			for _, t := range b.Templates {
				for c, d := range core.InDegrees(b, t) {
					inst := core.Instance{Thread: t.ID, Ctx: core.Context(c)}
					ref.counts[inst] = int(d)
					if d == 0 {
						ready = ref.fire(ready, inst)
					}
				}
			}
			return ready, false
		}
		if ref.blk == len(ref.p.Blocks)-1 {
			return nil, true
		}
		return []Ready{{Inst: core.Instance{Thread: s.InletID(ref.blk + 1), Ctx: core.Context(r.Kernel)}, Kernel: r.Kernel}}, false
	}
	b := ref.p.Blocks[ref.blk]
	t := b.Template(r.Inst.Thread)
	ref.completed[t.ID]++
	for _, a := range t.Arcs {
		cInst := b.Template(a.To).Instances
		targets := a.Map.AppendTargets(nil, r.Inst.Ctx, t.Instances, cInst)
		if compiledBroadcast(a.Map, t.Instances, cInst) {
			ref.predicted++
			if ref.completed[t.ID] == t.Instances {
				ref.predicted += int64(cInst)
				ref.barriers++
			}
		} else {
			ref.predicted += int64(len(targets))
			if _, ok := a.Map.(core.OneToAll); ok && ref.completed[t.ID] == t.Instances {
				ref.expanded++
			}
		}
		for _, cc := range targets {
			inst := core.Instance{Thread: a.To, Ctx: cc}
			ref.counts[inst]--
			if ref.counts[inst] == 0 {
				ready = ref.fire(ready, inst)
			}
		}
	}
	ref.remaining--
	if ref.remaining == 0 {
		ready = append(ready, Ready{Inst: core.Instance{Thread: s.OutletID(ref.blk), Ctx: core.Context(r.Kernel)}, Kernel: r.Kernel})
	}
	return ready, false
}

// barrierEngine is one way of driving the engine under test through a
// completion, to quiescence.
type barrierEngine interface {
	complete(r Ready) (ready []Ready, programDone bool)
	stats() Stats
}

type serialEngine struct{ s *State }

func (e serialEngine) complete(r Ready) ([]Ready, bool) {
	ready, _, done := e.s.CompleteInto(nil, r.Inst, r.Kernel)
	return ready, done
}

func (e serialEngine) stats() Stats { return e.s.Stats() }

// shardedEngine completes r on its owner's Lane, then steps every shard
// until a whole round ships nothing: a barrier released from one shard's
// inbox may route consumers to another.
type shardedEngine struct{ ss *ShardedState }

func (e shardedEngine) complete(r Ready) ([]Ready, bool) {
	s := e.ss.State()
	ready, done := e.ss.Lane(r.Kernel).Complete(nil, r.Inst, s.AppendConsumers(nil, r.Inst))
	for {
		pushes := e.ss.InboxStats().Pushes
		for sh := 0; sh < e.ss.Shards(); sh++ {
			ready = e.ss.Lane(e.ss.Stepper(sh)).Step(ready)
		}
		if e.ss.InboxStats().Pushes == pushes {
			return ready, done
		}
	}
}

func (e shardedEngine) stats() Stats { return e.ss.Stats() }

// checkAgainstRef drives eng and the reference in lockstep under a random
// completion order. After every completion the engine must surface the
// reference's ready set (in the reference's order when ordered is set),
// fire no instance twice and have performed exactly the predicted number
// of Ready Count updates.
func checkAgainstRef(t *testing.T, label string, p *core.Program, total int64, s *State, eng barrierEngine, ordered bool, sched *rand.Rand) *refTSU {
	t.Helper()
	ref := newRefTSU(p, s)
	queue := []Ready{s.Start()}
	seen := make(map[core.Instance]bool)
	for step := 0; ; step++ {
		if len(queue) == 0 {
			t.Fatalf("%s: queue drained before ProgramDone", label)
		}
		i := sched.Intn(len(queue))
		r := queue[i]
		queue = append(queue[:i], queue[i+1:]...)
		got, done := eng.complete(r)
		want, wantDone := ref.complete(r)
		if done != wantDone {
			t.Fatalf("%s step %d (%v): programDone = %v, reference %v", label, step, r.Inst, done, wantDone)
		}
		g, w := got, want
		if !ordered {
			g, w = sortedReady(got), sortedReady(want)
		}
		if !slices.Equal(g, w) {
			t.Fatalf("%s step %d (%v): ready %v, reference %v", label, step, r.Inst, got, want)
		}
		for _, rd := range got {
			if s.IsService(rd.Inst) {
				continue
			}
			if seen[rd.Inst] {
				t.Fatalf("%s step %d: %v fired twice", label, step, rd.Inst)
			}
			seen[rd.Inst] = true
		}
		if st := eng.stats(); st.Decrements != ref.predicted {
			t.Fatalf("%s step %d (%v): %d Ready Count updates, compile predicts %d", label, step, r.Inst, st.Decrements, ref.predicted)
		}
		queue = append(queue, got...)
		if done {
			break
		}
	}
	if len(queue) != 0 {
		t.Fatalf("%s: program done with %d queued instances", label, len(queue))
	}
	st := eng.stats()
	if int64(len(seen)) != total || st.Fired != total {
		t.Fatalf("%s: fired %d distinct instances (Stats.Fired %d), program has %d", label, len(seen), st.Fired, total)
	}
	if st.Inlets != len(p.Blocks) || st.Outlets != len(p.Blocks) {
		t.Fatalf("%s: inlets/outlets %d/%d, want %d", label, st.Inlets, st.Outlets, len(p.Blocks))
	}
	return ref
}

func sortedReady(in []Ready) []Ready {
	out := append([]Ready(nil), in...)
	sort.Slice(out, func(a, b int) bool {
		if out[a].Inst.Thread != out[b].Inst.Thread {
			return out[a].Inst.Thread < out[b].Inst.Thread
		}
		return out[a].Inst.Ctx < out[b].Inst.Ctx
	})
	return out
}

// TestBarrierDifferentialOracle is the differential check of barrier
// cells against the brute-force per-consumer reference: the single-driver
// State (exact ready order, since hardsim's cycles depend on it), the
// sharded engine with 1–4 shards and linear SM search on and off, and a
// Tables-backed State reused across Acquire/Release, on random
// multi-block programs under random completion orders.
func TestBarrierDifferentialOracle(t *testing.T) {
	var compiled, expanded int
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed + 9000))
		p, total := barrierRandomProgram(r)
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		kernels := 4 + r.Intn(3)
		var cfg Config
		if r.Intn(3) == 0 {
			cfg.Mapping = RoundRobinMapping{}
		}

		s, err := NewStateCfg(p, kernels, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ref := checkAgainstRef(t, fmt.Sprintf("seed %d State", seed), p, total, s, serialEngine{s}, true, rand.New(rand.NewSource(seed)))
		compiled += ref.barriers
		expanded += ref.expanded

		for shards := 1; shards <= 4; shards++ {
			for _, linear := range []bool{false, true} {
				s, err := NewStateCfg(p, kernels, cfg)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				s.SetLinearSMSearch(linear)
				ss, err := NewSharded(s, shards, TUBConfig{}, nil)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				label := fmt.Sprintf("seed %d sharded s=%d linear=%v", seed, shards, linear)
				checkAgainstRef(t, label, p, total, s, shardedEngine{ss}, false, rand.New(rand.NewSource(seed+int64(shards))))
			}
		}

		tb, err := NewTables(p, kernels, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var first *State
		for run := 0; run < 3; run++ {
			s := tb.Acquire()
			if first == nil {
				first = s
			} else if s != first {
				t.Fatalf("seed %d run %d: pool returned a different State", seed, run)
			}
			label := fmt.Sprintf("seed %d Tables run %d", seed, run)
			checkAgainstRef(t, label, p, total, s, serialEngine{s}, true, rand.New(rand.NewSource(seed*7+int64(run))))
			s.Release()
		}
	}
	if compiled == 0 || expanded == 0 {
		t.Fatalf("generator covered %d compiled and %d expanded broadcasts; want both", compiled, expanded)
	}
}
