package train

import (
	"math"
	"testing"

	"longexposure/internal/data"
	"longexposure/internal/model"
	"longexposure/internal/nn"
	"longexposure/internal/peft"
	"longexposure/internal/tensor"
)

func TestPerplexityDropsWithTraining(t *testing.T) {
	r := tensor.NewRNG(90)
	m := nn.NewTransformer(model.SimSmall(nn.ActReLU).Config, r)
	peft.Apply(m, peft.FullFT, peft.Options{}, r.Split())
	batches := copyTaskBatches(64, 2, 8, 8, 91)

	before := Perplexity(m, batches, nil)
	// An untrained model over a 64-token vocabulary sits near uniform.
	if before < 20 || before > 200 {
		t.Fatalf("untrained perplexity %v implausible for vocab 64", before)
	}

	e := &Engine{Model: m, Opt: peft.NewAdamW(3e-3, 0), ClipNorm: 1}
	e.Run(batches, 8)
	after := Perplexity(m, batches, nil)
	if after >= before/2 {
		t.Fatalf("perplexity did not halve: %v → %v", before, after)
	}
}

func TestPerplexityEmptySupervision(t *testing.T) {
	r := tensor.NewRNG(92)
	m := nn.NewTransformer(model.SimSmall(nn.ActReLU).Config, r)
	tg := make([]int, 8)
	for i := range tg {
		tg[i] = nn.IgnoreIndex
	}
	b := data.Batch{Inputs: [][]int{{1, 2, 3, 4, 5, 6, 7, 8}}, Targets: [][]int{tg}}
	if p := Perplexity(m, []data.Batch{b}, nil); !math.IsInf(p, 1) {
		t.Fatalf("perplexity of unsupervised batch = %v, want +Inf", p)
	}
}

func TestPerplexityConsistentWithLoss(t *testing.T) {
	r := tensor.NewRNG(93)
	m := nn.NewTransformer(model.SimSmall(nn.ActReLU).Config, r)
	batches := copyTaskBatches(64, 2, 8, 2, 94)
	ws := tensor.NewArena()
	logits := m.Forward(batches[0].Inputs, nil, ws)
	loss, _ := nn.CrossEntropyIn(ws, logits, m.FlattenTargetsIn(ws, batches[0].Targets))
	ppl := Perplexity(m, batches[:1], nil)
	if math.Abs(math.Log(ppl)-loss) > 1e-6 {
		t.Fatalf("log(ppl) %v != loss %v", math.Log(ppl), loss)
	}
}
