package exposer

import (
	"testing"

	"longexposure/internal/sparse"
	"longexposure/internal/tensor"
)

// syntheticProbs builds an s×s causal probability matrix concentrated on
// the blocks listed in hot (block coordinates), with tiny mass elsewhere.
func syntheticProbs(s, blk int, hot [][2]int) *tensor.Tensor {
	p := tensor.New(s, s)
	isHot := make(map[[2]int]bool)
	for _, h := range hot {
		isHot[h] = true
	}
	for i := 0; i < s; i++ {
		// Base: tiny uniform causal mass.
		for j := 0; j <= i; j++ {
			p.Set(0.001, i, j)
		}
		for j := 0; j <= i; j++ {
			if isHot[[2]int{i / blk, j / blk}] {
				p.Set(0.5, i, j)
			}
		}
	}
	return p
}

func TestHeadMaskFindsHotBlocks(t *testing.T) {
	e := New(Config{Blk: 4, AttnThreshold: 0.1})
	hot := [][2]int{{2, 0}, {3, 1}}
	probs := syntheticProbs(16, 4, hot)
	m := e.HeadMask(probs)
	if !m.IsCausal() || !m.CoversDiagonal() {
		t.Fatal("mask violates causal invariants")
	}
	for _, h := range hot {
		if !m.Active(h[0], h[1]) {
			t.Fatalf("hot block %v not captured", h)
		}
	}
	// Cold off-diagonal block must be filtered: (3,0) has only 0.001 mass
	// while row peak is 0.5.
	if m.Active(3, 0) {
		t.Fatal("cold block captured")
	}
}

func TestHeadMaskDiagonalAlwaysActive(t *testing.T) {
	e := New(Config{Blk: 4})
	probs := tensor.New(8, 8) // all-zero probabilities
	m := e.HeadMask(probs)
	if !m.CoversDiagonal() {
		t.Fatal("diagonal dropped on degenerate input")
	}
}

func TestHeadMasksBatchUnion(t *testing.T) {
	e := New(Config{Blk: 4, AttnThreshold: 0.1})
	// Two batch elements exciting different blocks of the same head.
	p1 := syntheticProbs(16, 4, [][2]int{{3, 0}})
	p2 := syntheticProbs(16, 4, [][2]int{{3, 1}})
	masks := e.HeadMasks([]*tensor.Tensor{p1, p2}, 2, 1)
	if len(masks) != 1 {
		t.Fatalf("got %d masks", len(masks))
	}
	if !masks[0].Active(3, 0) || !masks[0].Active(3, 1) {
		t.Fatal("batch union lost a needed block")
	}
}

// TestShadowyEffectOnAttention reproduces the paper's core observation:
// heads with disjoint patterns force a uniform mask to be much denser than
// any head-specific mask.
func TestShadowyEffectOnAttention(t *testing.T) {
	e := New(Config{Blk: 4, AttnThreshold: 0.1})
	heads := []*tensor.Tensor{
		syntheticProbs(32, 4, [][2]int{{4, 0}, {5, 0}, {6, 0}, {7, 0}}),
		syntheticProbs(32, 4, [][2]int{{4, 3}, {5, 4}, {6, 5}, {7, 6}}),
		syntheticProbs(32, 4, [][2]int{{7, 1}, {7, 2}, {7, 3}}),
	}
	masks := e.HeadMasks(heads, 1, 3)
	uniform := UniformMask(masks)
	perHead := AttentionSparsity(masks)
	uniformSparsity := AttentionSparsity([]*sparse.Layout{uniform})
	if perHead <= uniformSparsity {
		t.Fatalf("head-specific sparsity %.3f not better than uniform %.3f", perHead, uniformSparsity)
	}
}

func TestMatchToPoolPicksLocalForLocalMask(t *testing.T) {
	e := New(Config{Blk: 4, MinRecall: 0.9})
	local := sparse.Pattern{Kind: sparse.KindLocal, Window: 2}.Build(8)
	pat, layout := e.MatchToPool(local, nil)
	if pat.Kind == sparse.KindDense {
		t.Fatalf("local mask matched to dense (pattern %v)", pat)
	}
	// Guarantee: recall over the needed mask meets the floor.
	recall := float64(layout.Overlap(local)) / float64(local.NNZ())
	if recall < 0.9 {
		t.Fatalf("match recall %.3f < 0.9", recall)
	}
}

func TestMatchToPoolFallsBackToDense(t *testing.T) {
	e := New(Config{Blk: 4, MinRecall: 0.999})
	// A mask denser than any pool atom: full causal triangle.
	full := sparse.Pattern{Kind: sparse.KindDense}.Build(12)
	pat, _ := e.MatchToPool(full, nil)
	if pat.Kind != sparse.KindDense {
		t.Fatalf("dense-needed mask matched to %v", pat)
	}
}

func TestExposeAttentionEndToEnd(t *testing.T) {
	e := New(Config{Blk: 4, AttnThreshold: 0.1})
	probs := []*tensor.Tensor{
		syntheticProbs(16, 4, [][2]int{{1, 0}, {2, 1}, {3, 2}}), // local-ish
		syntheticProbs(16, 4, [][2]int{{1, 0}, {2, 0}, {3, 0}}), // global-ish
	}
	pats, layouts := e.ExposeAttention(probs, 1, 2)
	if len(pats) != 2 || len(layouts) != 2 {
		t.Fatal("wrong output arity")
	}
	for h, l := range layouts {
		if !l.IsCausal() || !l.CoversDiagonal() {
			t.Fatalf("head %d layout invalid", h)
		}
	}
}

func TestNeuronBlockImportance(t *testing.T) {
	// 2 tokens, 8 neurons, blk 4. Block 0 has strong activations, block 1
	// nearly none.
	hidden := tensor.FromSlice([]float32{
		2, 2, 2, 2, 0, 0, 0, 0.1,
		2, 2, 2, 2, 0, 0, 0, 0,
	}, 2, 8)
	imp := NeuronBlockImportance(hidden, 4)
	if len(imp) != 2 {
		t.Fatalf("got %d blocks", len(imp))
	}
	if imp[0] != 2 {
		t.Fatalf("block 0 importance = %v, want 2", imp[0])
	}
	if imp[1] >= 0.1 {
		t.Fatalf("block 1 importance = %v, want tiny", imp[1])
	}
}

func TestFilterThresholdMonotonic(t *testing.T) {
	// Higher thresholds must never activate more blocks (Fig 9 trend).
	r := tensor.NewRNG(1)
	hidden := tensor.New(16, 64)
	r.FillNormal(hidden, 1)
	tensor.ReLUIn(tensor.NewArena(), hidden, false)
	prev := -1
	for _, th := range []float64{0.01, 0.02, 0.03, 0.05, 0.2, 0.5} {
		n := len(FilterNeuronBlocksAt(hidden, 8, th))
		if prev >= 0 && n > prev {
			t.Fatalf("threshold %v activated %d blocks, more than %d", th, n, prev)
		}
		prev = n
	}
}

func TestFilterNeverEmpty(t *testing.T) {
	hidden := tensor.New(4, 16) // all zeros
	blocks := FilterNeuronBlocksAt(hidden, 4, 0.5)
	if len(blocks) != 1 {
		t.Fatalf("degenerate input gave %d blocks", len(blocks))
	}
}

func TestFilterBlocksSortedAndInRange(t *testing.T) {
	r := tensor.NewRNG(2)
	hidden := tensor.New(8, 32)
	r.FillNormal(hidden, 1)
	tensor.ReLUIn(tensor.NewArena(), hidden, false)
	blocks := FilterNeuronBlocksAt(hidden, 8, 0.01)
	for i, b := range blocks {
		if b < 0 || b >= 4 {
			t.Fatalf("block %d out of range", b)
		}
		if i > 0 && blocks[i] <= blocks[i-1] {
			t.Fatal("blocks not strictly ascending")
		}
	}
}

// TestShadowyEffectOnMLP reproduces Fig 4(c,d): individual tokens are very
// sparse, but the overall (AND-reduced) sparsity collapses.
func TestShadowyEffectOnMLP(t *testing.T) {
	tokens, H := 32, 64
	mask := tensor.New(tokens, H)
	r := tensor.NewRNG(3)
	// Each token activates a random 20% subset — different per token.
	for i := 0; i < tokens; i++ {
		for h := 0; h < H; h++ {
			if r.Float64() < 0.2 {
				mask.Set(1, i, h)
			}
		}
	}
	perToken := PerTokenMLPSparsity(mask)
	overall := ShadowyMLPSparsity(mask)
	if perToken < 0.7 {
		t.Fatalf("per-token sparsity %.3f unexpectedly low", perToken)
	}
	if overall > 0.15 {
		t.Fatalf("overall sparsity %.3f did not collapse (shadowy effect missing)", overall)
	}
}

func TestBaselinePatternDensities(t *testing.T) {
	pool := sparse.NewPool()
	bb := pool.Get(BigBirdPattern(), 8)
	lf := pool.Get(LongformerPattern(), 8)
	if bb.NNZ() <= lf.NNZ() {
		t.Fatal("BigBird should be denser than Longformer at this size")
	}
}

func TestNeuronBlockSparsity(t *testing.T) {
	if s := NeuronBlockSparsity([]int{0, 1}, 64, 8); s != 0.75 {
		t.Fatalf("NeuronBlockSparsity = %v", s)
	}
}
