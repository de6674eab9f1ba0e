package tsu

import (
	"slices"
	"testing"

	"tflux/internal/core"
)

// builtinFanoutProgram is one producer with an arc of each of core's six
// built-in mappings, every arc fanning out to at most 16 consumers.
func builtinFanoutProgram() *core.Program {
	const n = 8
	p := core.NewProgram("builtin-fanout")
	blk := p.AddBlock()
	src := core.NewTemplate(1, "src", func(core.Context) {})
	src.Instances = n
	consumers := []struct {
		inst core.Context
		m    core.Mapping
	}{
		{n, core.OneToOne{}},
		{1, core.AllToOne{Target: 0}},
		{16, core.OneToAll{}},
		{n / 2, core.Gather{Fan: 2}},
		{n * 16, core.Scatter{Fan: 16}},
		{1, core.Const{Target: 0}},
	}
	for i, c := range consumers {
		id := core.ThreadID(2 + i)
		t := core.NewTemplate(id, "c", func(core.Context) {})
		t.Instances = c.inst
		blk.Add(t)
		src.Then(id, c.m)
	}
	blk.Add(src)
	return p
}

// builtinFanout is the consumer count of one builtinFanoutProgram
// completion: 1 + 1 + 16 + 1 + 16 + 1.
const builtinFanout = 36

// builtinTargets is the State's target count for the same completion: its
// 8→16 broadcast (8·16 > 8 + 16) is one barrier cell, so 1+1+1+1+16+1.
const builtinTargets = 21

// TestAppendConsumersAllocFree pins consumer expansion to zero heap
// allocations on core's built-in mappings (fan-out ≤ 16 per arc) when the
// caller reuses dst, on both SM representations: the State's barrier form
// and the WindowedSM's per-consumer form.
func TestAppendConsumersAllocFree(t *testing.T) {
	p := builtinFanoutProgram()
	s, err := NewState(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWindowed(p.Blocks[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]core.Instance, 0, 64)
	for _, tc := range []struct {
		name   string
		expand func(dst []core.Instance, inst core.Instance) []core.Instance
		inst   core.Instance
		want   int
	}{
		{"State", s.AppendConsumers, core.Instance{Thread: 1, Ctx: 3}, builtinTargets},
		// Slot 1, local 3: the windowed encoding is slot·instances+local.
		{"WindowedSM", w.AppendConsumers, core.Instance{Thread: 1, Ctx: 8 + 3}, builtinFanout},
	} {
		if got := len(tc.expand(dst[:0], tc.inst)); got != tc.want {
			t.Fatalf("%s: expanded %d consumers, want %d", tc.name, got, tc.want)
		}
		allocs := testing.AllocsPerRun(100, func() {
			dst = tc.expand(dst[:0], tc.inst)
		})
		if allocs != 0 {
			t.Errorf("%s.AppendConsumers: %v allocations per completion, want 0", tc.name, allocs)
		}
	}
}

// TestAppendConsumersMatchesMapping checks the shared expansion against
// each arc's own AppendTargets, for the built-in fast paths and the
// interface fallback, on both representations (windowed contexts offset
// by slot·instances). On the State the broadcast arc is exactly one
// target, its barrier cell, standing for its 16 consumers in FanOut.
func TestAppendConsumersMatchesMapping(t *testing.T) {
	p := builtinFanoutProgram()
	src := p.Blocks[0].Template(1)
	chained := core.NewTemplate(8, "chained", func(core.Context) {})
	chained.Instances = src.Instances
	p.Blocks[0].Add(chained)
	src.Then(8, chainMapping{})
	s, err := NewState(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	const slots = 3
	w, err := NewWindowed(p.Blocks[0], slots)
	if err != nil {
		t.Fatal(err)
	}
	for slot := core.Context(0); slot < slots; slot++ {
		for pctx := core.Context(0); pctx < src.Instances; pctx++ {
			var want []core.Instance
			for _, a := range src.Arcs {
				cInst := p.Blocks[0].Template(a.To).Instances
				for _, cc := range a.Map.AppendTargets(nil, pctx, src.Instances, cInst) {
					want = append(want, core.Instance{Thread: a.To, Ctx: slot*cInst + cc})
				}
			}
			got := w.AppendConsumers(nil, core.Instance{Thread: 1, Ctx: slot*src.Instances + pctx})
			if slot == 0 {
				var swant []core.Instance
				for _, a := range src.Arcs {
					if _, ok := a.Map.(core.OneToAll); ok {
						swant = append(swant, core.Instance{Thread: s.barrierBase, Ctx: 0})
						continue
					}
					cInst := p.Blocks[0].Template(a.To).Instances
					for _, cc := range a.Map.AppendTargets(nil, pctx, src.Instances, cInst) {
						swant = append(swant, core.Instance{Thread: a.To, Ctx: cc})
					}
				}
				sgot := s.AppendConsumers(nil, core.Instance{Thread: 1, Ctx: pctx})
				if !slices.Equal(sgot, swant) {
					t.Fatalf("State ctx %d: %v, want %v", pctx, sgot, swant)
				}
				if n := s.FanOut(sgot); n != len(want) {
					t.Fatalf("State ctx %d: FanOut = %d, want %d", pctx, n, len(want))
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("WindowedSM slot %d ctx %d: %v, want %v", slot, pctx, got, want)
			}
		}
	}
}
