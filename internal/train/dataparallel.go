package train

import (
	"fmt"
	"sync"
	"time"

	"longexposure/internal/data"
	"longexposure/internal/nn"
	"longexposure/internal/peft"
	"longexposure/internal/tensor"
)

// CloneModel deep-copies a transformer's weights into a structurally
// identical fresh model (same PEFT modules must be re-applied by the
// caller before cloning trainable state is meaningful; in practice clones
// are made after peft.Apply, which this helper supports by copying every
// parameter by position).
func CloneModel(src *nn.Transformer, rng *tensor.RNG) *nn.Transformer {
	dst := nn.NewTransformer(src.Cfg, rng)
	// Recreate structural extensions.
	for i, b := range src.Blocks {
		if b.Attn.Wq.HasLoRA() {
			dst.Blocks[i].Attn.Wq.AddLoRA(fmt.Sprintf("layer%d.attn.q_proj", i), b.Attn.Wq.LoRAA.W.Dim(1), 1, rng)
			dst.Blocks[i].Attn.Wq.LoRAScale = b.Attn.Wq.LoRAScale
		}
		if b.Attn.Wv.HasLoRA() {
			dst.Blocks[i].Attn.Wv.AddLoRA(fmt.Sprintf("layer%d.attn.v_proj", i), b.Attn.Wv.LoRAA.W.Dim(1), 1, rng)
			dst.Blocks[i].Attn.Wv.LoRAScale = b.Attn.Wv.LoRAScale
		}
		if b.AdptA != nil {
			dst.Blocks[i].AdptA = nn.NewAdapter(fmt.Sprintf("layer%d.adapter_attn", i), src.Cfg.Dim, b.AdptA.Bottleneck, rng)
		}
		if b.AdptM != nil {
			dst.Blocks[i].AdptM = nn.NewAdapter(fmt.Sprintf("layer%d.adapter_mlp", i), src.Cfg.Dim, b.AdptM.Bottleneck, rng)
		}
	}
	if src.Prompt != nil {
		dst.EnablePrompt(src.PromptLen, rng)
	}

	sp := src.Params()
	dp := dst.Params()
	if len(sp) != len(dp) {
		panic(fmt.Sprintf("train: clone parameter count mismatch %d vs %d", len(sp), len(dp)))
	}
	for i := range sp {
		dp[i].W.CopyFrom(sp[i].W)
		dp[i].Frozen = sp[i].Frozen
	}
	return dst
}

// DataParallel simulates synchronous data-parallel fine-tuning across
// nWorkers replicas ("GPUs"): each worker computes gradients on its shard
// of the batch, gradients of trainable parameters are all-reduced
// (averaged), and each replica steps its own optimizer identically —
// keeping replicas bit-identical, as NCCL-based DDP does.
type DataParallel struct {
	Workers  []*nn.Transformer
	Opts     []peft.Optimizer
	ClipNorm float64

	// arenas holds one private workspace per replica: concurrent workers
	// never share step-lived buffers or saved-for-backward state, keeping
	// the forward/backward phase race-free under the race detector.
	arenas    []*tensor.Arena
	paramSets []nn.ParamSet // cached per-replica parameter sets
	losses    []float64
}

// NewDataParallel replicates the (already PEFT-configured) model. The
// replicas share the source's frozen weight tensors — layers only read
// their weights, and frozen ones no optimizer steps — while each keeps
// its own Parameter structs, so trainable weights, gradients and
// ZeroGrads stay per replica.
func NewDataParallel(m *nn.Transformer, nWorkers int, mkOpt func() peft.Optimizer, rng *tensor.RNG) *DataParallel {
	dp := &DataParallel{}
	dp.Workers = append(dp.Workers, m)
	dp.Opts = append(dp.Opts, mkOpt())
	src := m.Params()
	for w := 1; w < nWorkers; w++ {
		r := CloneModel(m, rng.Split())
		for i, p := range r.Params() {
			if p.Frozen {
				p.W = src[i].W
			}
		}
		dp.Workers = append(dp.Workers, r)
		dp.Opts = append(dp.Opts, mkOpt())
	}
	for range dp.Workers {
		dp.arenas = append(dp.arenas, tensor.NewArena())
	}
	dp.losses = make([]float64, len(dp.Workers))
	for _, w := range dp.Workers {
		dp.paramSets = append(dp.paramSets, w.Params())
	}
	return dp
}

// Step shards the batch across workers, runs forward/backward
// concurrently, all-reduces trainable gradients, and steps every replica.
// It returns the mean loss and the wall-clock of the slowest worker plus
// the reduce/step time (the data-parallel critical path).
func (dp *DataParallel) Step(b data.Batch) (float64, time.Duration) {
	n := len(dp.Workers)
	if len(b.Inputs)%n != 0 {
		panic(fmt.Sprintf("train: batch %d not divisible by %d workers", len(b.Inputs), n))
	}
	shard := len(b.Inputs) / n

	losses := dp.losses
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := dp.Workers[w]
			ws := dp.arenas[w] // private per-replica workspace
			ins := b.Inputs[w*shard : (w+1)*shard]
			tgts := b.Targets[w*shard : (w+1)*shard]
			logits := m.Forward(ins, nil, ws)
			loss, dLogits := nn.CrossEntropyIn(ws, logits, m.FlattenTargetsIn(ws, tgts))
			dp.paramSets[w].ZeroGrads()
			m.Backward(dLogits, ws)
			ws.Release() // gradients live on the parameters; scratch is done
			losses[w] = loss
		}(w)
	}
	wg.Wait()

	// All-reduce (average) trainable gradients across replicas.
	paramSets := dp.paramSets
	base := paramSets[0]
	inv := float32(1 / float64(n))
	for pi, p := range base {
		if p.Frozen {
			continue
		}
		acc := p.Grad.Data
		for w := 1; w < n; w++ {
			other := paramSets[w][pi].Grad.Data
			for i := range acc {
				acc[i] += other[i]
			}
		}
		for i := range acc {
			acc[i] *= inv
		}
		for w := 1; w < n; w++ {
			copy(paramSets[w][pi].Grad.Data, acc)
		}
	}

	for w := range dp.Workers {
		if dp.ClipNorm > 0 {
			peft.ClipGradNorm(paramSets[w], dp.ClipNorm)
		}
		dp.Opts[w].Step(paramSets[w])
	}
	elapsed := time.Since(start)

	var mean float64
	for _, l := range losses {
		mean += l
	}
	return mean / float64(n), elapsed
}

// MaxReplicaDrift returns the largest trainable-parameter divergence across
// replicas — zero in a correct synchronous implementation.
func (dp *DataParallel) MaxReplicaDrift() float64 {
	base := dp.Workers[0].Params()
	var worst float64
	for w := 1; w < len(dp.Workers); w++ {
		other := dp.Workers[w].Params()
		for pi, p := range base {
			if p.Frozen {
				continue
			}
			if d := tensor.MaxAbsDiff(p.W, other[pi].W); d > worst {
				worst = d
			}
		}
	}
	return worst
}
