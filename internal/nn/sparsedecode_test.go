package nn

import (
	"testing"

	"longexposure/internal/tensor"
)

// fixedPlanner is a DecodePlanner stub returning the same plan every step
// — the nn-level tests exercise the plan plumbing without depending on
// the predictor package's runtime estimators.
type fixedPlanner struct {
	plan  *DecodePlan
	began int
	steps int
}

func (f *fixedPlanner) BeginSequence([]int, *DecodeAdapter) { f.began++ }
func (f *fixedPlanner) PlanStep(int, int, *tensor.Arena) *DecodePlan {
	f.steps++
	return f.plan
}

// TestDecodePlanDenseEscape pins the escape hatch the density-1.0 quality
// gate is built on: a plan whose per-layer selections are nil (what the
// serving planner emits at full coverage) runs the literal dense code
// path — bit-identical tokens, planner threaded through every step.
func TestDecodePlanDenseEscape(t *testing.T) {
	m := NewTransformer(tinyConfig(), tensor.NewRNG(700))
	trainSteps(m, 2)
	prompt := []int{1, 4, 2, 9}
	cfg := GenerateConfig{MaxTokens: 8, RNG: tensor.NewRNG(77)}
	want := m.GenerateCachedCfg(prompt, cfg, DecodeSession{WS: tensor.NewArena()})

	p := &fixedPlanner{plan: &DecodePlan{Blk: 8, MLPDensity: 1, AttnDensity: 1}}
	cfg.RNG = tensor.NewRNG(77)
	got := m.GenerateCachedCfg(prompt, cfg, DecodeSession{WS: tensor.NewArena(), Planner: p})
	if p.began != 1 || p.steps != len(got)-1 {
		t.Fatalf("planner saw %d BeginSequence / %d PlanStep calls over %d tokens", p.began, p.steps, len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dense-escape plan diverged: got %v, want %v", got, want)
		}
	}
}

// TestDecodeAttentionSparseFullCoverage pins that a plan listing every
// visible attention block is bit-identical to the dense read: the compact
// gather visits the same positions in the same order, so selecting
// everything must change nothing.
func TestDecodeAttentionSparseFullCoverage(t *testing.T) {
	m := NewTransformer(tinyConfig(), tensor.NewRNG(701))
	trainSteps(m, 2)
	prompt := []int{2, 7, 1, 3, 5, 6, 4, 8}
	cfg := GenerateConfig{MaxTokens: 6, RNG: tensor.NewRNG(78)}
	want := m.GenerateCachedCfg(prompt, cfg, DecodeSession{WS: tensor.NewArena()})

	// MaxSeq 16 at blk 4 → blocks {0,1,2,3} cover every position the run
	// can reach; MLP selections stay nil (dense).
	attn := make([][]int, m.Cfg.Layers)
	for li := range attn {
		attn[li] = []int{0, 1, 2, 3}
	}
	p := &fixedPlanner{plan: &DecodePlan{Blk: 4, Attn: attn, MLPDensity: 1, AttnDensity: 1}}
	cfg.RNG = tensor.NewRNG(78)
	got := m.GenerateCachedCfg(prompt, cfg, DecodeSession{WS: tensor.NewArena(), Planner: p})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("full-coverage sparse attention diverged: got %v, want %v", got, want)
		}
	}
}

// TestMLPForwardRowsIndependent pins the property the stacked decode step
// relies on when it runs many sequences' rows through one MLP.Forward
// call: a three-row forward equals three one-row forwards bit for bit,
// dense and under each neuron-block selection — a row's output never
// depends on which rows share its call.
func TestMLPForwardRowsIndependent(t *testing.T) {
	m := NewTransformer(tinyConfig(), tensor.NewRNG(702))
	mlp := m.Blocks[0].MLP
	blk := 8 // Hidden 32 → blocks {0..3}
	rng := tensor.NewRNG(9)
	x := tensor.New(3, m.Cfg.Dim)
	rng.FillNormal(x, 1)

	for _, blocks := range [][]int{nil, {0}, {1, 3}, {0, 1, 2, 3}} {
		want := mlp.Forward(x, blocks, blk, nil).Clone()
		for r := 0; r < x.Dim(0); r++ {
			row := tensor.New(1, m.Cfg.Dim)
			copy(row.Data, x.Row(r))
			got := mlp.Forward(row, blocks, blk, nil)
			for j, v := range got.Data {
				if w := want.Row(r)[j]; v != w {
					t.Fatalf("blocks %v: row %d col %d = %v alone, %v among three rows", blocks, r, j, v, w)
				}
			}
		}
	}
}

// TestDecodeSparseGuards pins the two misuse panics: MLP selections on a
// non-ReLU model, and an attention selection that misses every visible
// position.
func TestDecodeSparseGuards(t *testing.T) {
	gelu := tinyConfig()
	gelu.Act = ActGeLU
	gm := NewTransformer(gelu, tensor.NewRNG(703))
	mustPanic(t, "gelu sparse MLP", func() {
		plan := &DecodePlan{Blk: 8, MLP: [][]int{{0}, {0}}}
		cache := gm.NewKVCache()
		gm.DecodeStepCfg(cache, []int{1, 2}, DecodeStepConfig{}) // prefill
		gm.DecodeStepCfg(cache, []int{3}, DecodeStepConfig{Plan: plan})
	})

	m := NewTransformer(tinyConfig(), tensor.NewRNG(704))
	mustPanic(t, "empty attention selection", func() {
		// Position 2 lives in block 0 at blk 4; selecting only block 3
		// leaves the query row with nothing visible.
		plan := &DecodePlan{Blk: 4, Attn: [][]int{{3}, {3}}}
		cache := m.NewKVCache()
		m.DecodeStepCfg(cache, []int{1, 2}, DecodeStepConfig{})
		m.DecodeStepCfg(cache, []int{3}, DecodeStepConfig{Plan: plan})
	})
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", name)
		}
	}()
	f()
}
