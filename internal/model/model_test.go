package model

import (
	"testing"

	"longexposure/internal/exposer"
	"longexposure/internal/nn"
	"longexposure/internal/tensor"
)

func TestAllConfigsValidate(t *testing.T) {
	for _, s := range All() {
		if err := s.Config.Validate(); err != nil {
			t.Errorf("%s: %v", s, err)
		}
	}
	for _, s := range All() {
		sim := Sim(s)
		if err := sim.Config.Validate(); err != nil {
			t.Errorf("%s: %v", sim, err)
		}
		if sim.Config.Act != s.Config.Act {
			t.Errorf("%s: sim changed activation", s)
		}
	}
}

func TestFamilyActivationPairing(t *testing.T) {
	for _, s := range All() {
		switch s.Family {
		case FamilyOPT:
			if s.Config.Act != nn.ActReLU {
				t.Errorf("%s: OPT must be ReLU", s)
			}
		case FamilyGPT2:
			if s.Config.Act != nn.ActGeLU {
				t.Errorf("%s: GPT-2 must be GeLU", s)
			}
		}
	}
}

func TestParamCountMonotoneInSize(t *testing.T) {
	sizes := []Spec{OPT125M(), OPT350M(), OPT1p3B(), OPT2p7B()}
	for i := 1; i < len(sizes); i++ {
		if sizes[i].ParamCount() <= sizes[i-1].ParamCount() {
			t.Errorf("%s not larger than %s", sizes[i], sizes[i-1])
		}
	}
}

func TestPrimeSparsityInducesTrainedLLMStatistics(t *testing.T) {
	spec := Sim(OPT1p3B())
	rng := tensor.NewRNG(1)
	m := nn.NewTransformer(spec.Config, rng)
	PrimeSparsity(m, rng.Split(), 8)

	// Drive a forward pass with arbitrary tokens.
	ids := make([][]int, 2)
	r2 := tensor.NewRNG(2)
	for b := range ids {
		row := make([]int, 64)
		for i := range row {
			row[i] = 4 + r2.Intn(spec.Config.Vocab-4)
		}
		ids[b] = row
	}
	ws := tensor.NewArena()
	m.Forward(ids, nil, ws)

	for li, b := range m.Blocks {
		mask := b.MLP.ActivationMask(ws)
		perTok := exposer.PerTokenMLPSparsity(mask)
		if perTok < 0.6 {
			t.Errorf("layer %d: per-token MLP sparsity %.2f < 0.6 (priming failed)", li, perTok)
		}
		// Importance must be heavy-tailed enough for the 2%-threshold
		// filter to drop something.
		blocks := exposer.FilterNeuronBlocksAt(b.MLP.HiddenActivations(ws), 8, 0.02)
		total := (spec.Config.Hidden + 7) / 8
		if len(blocks) == total {
			t.Errorf("layer %d: threshold filter dropped nothing", li)
		}
	}
}

func TestPrimeSparsityKeepsModelTrainable(t *testing.T) {
	spec := SimSmall(nn.ActReLU)
	rng := tensor.NewRNG(3)
	m := nn.NewTransformer(spec.Config, rng)
	PrimeSparsity(m, rng.Split(), 4)

	ids := [][]int{{1, 2, 3, 4, 5, 6, 7, 8}}
	targets := [][]int{{1, 2, 3, 4, 5, 6, 7, 8}}
	ps := m.Params()
	ws := tensor.NewArena()
	var first, last float64
	for step := 0; step < 40; step++ {
		logits := m.Forward(ids, nil, ws)
		loss, dLogits := nn.CrossEntropyIn(ws, logits, m.FlattenTargetsIn(ws, targets))
		if step == 0 {
			first = loss
		}
		last = loss
		ps.ZeroGrads()
		m.Backward(dLogits, ws)
		for _, p := range ps {
			tensor.AddScaledInto(p.W, p.Grad, -0.3)
		}
		ws.Release()
	}
	if last > first*0.7 {
		t.Fatalf("primed model does not train: %.3f → %.3f", first, last)
	}
}

func TestPrimeSparsityGeLUSkipsMLP(t *testing.T) {
	spec := SimSmall(nn.ActGeLU)
	rng := tensor.NewRNG(4)
	m := nn.NewTransformer(spec.Config, rng)
	before := m.Blocks[0].MLP.B1.W.Clone()
	PrimeSparsity(m, rng.Split(), 4)
	if d := tensor.MaxAbsDiff(before, m.Blocks[0].MLP.B1.W); d != 0 {
		t.Fatal("GeLU MLP biases were primed")
	}
}

func TestPrimeAttentionIsLocal(t *testing.T) {
	// Priming must concentrate attention mass near the diagonal: the mean
	// attended distance should be well below the uniform-causal value.
	spec := Sim(OPT1p3B())
	rng := tensor.NewRNG(5)
	m := nn.NewTransformer(spec.Config, rng)
	PrimeSparsity(m, rng.Split(), 8)

	seq := 64
	row := make([]int, seq)
	r2 := tensor.NewRNG(6)
	for i := range row {
		row[i] = 4 + r2.Intn(spec.Config.Vocab-4)
	}
	ws := tensor.NewArena()
	m.Forward([][]int{row}, nil, ws)

	var meanDist, uniformDist float64
	var n int
	for _, b := range m.Blocks {
		for _, p := range b.Attn.DenseProbs(ws) {
			for i := seq / 2; i < seq; i++ { // rows with enough context
				var d float64
				for j := 0; j <= i; j++ {
					d += float64(p.At(i, j)) * float64(i-j)
				}
				meanDist += d
				uniformDist += float64(i) / 2
				n++
			}
		}
	}
	meanDist /= float64(n)
	uniformDist /= float64(n)
	if meanDist > 0.7*uniformDist {
		t.Fatalf("attention not localized: mean distance %.1f vs uniform %.1f", meanDist, uniformDist)
	}
}
