// Package core assembles the Long Exposure system (paper §III): a
// fine-tuning session that wires the Shadowy-sparsity Exposer, the
// Sequence-oriented Predictors and the Dynamic-aware Operators into the
// training engine, next to a dense baseline representing the PEFT-library
// state of the art.
//
// Lifecycle: New → PretrainPredictors (offline, on calibration batches) →
// Engine().Run (fine-tune under predicted sparsity). MeasureDensities
// reports the sparsity the pipeline actually achieves, which parameterizes
// the paper-scale cost model (internal/gpusim).
package core

import (
	"longexposure/internal/exposer"
	"longexposure/internal/model"
	"longexposure/internal/nn"
	"longexposure/internal/peft"
	"longexposure/internal/predictor"
	"longexposure/internal/tensor"
	"longexposure/internal/train"
)

// Config assembles a Long Exposure session.
type Config struct {
	Spec   model.Spec
	Method peft.Method
	PEFT   peft.Options

	// Blk is the sparsity block size (tokens for attention, neurons for
	// the MLP). Sim default 16.
	Blk int
	// PredictorRank is the low-rank width of the attention predictors.
	PredictorRank int
	// AttnThreshold / MLPThreshold tune the exposer (see exposer.Config).
	AttnThreshold float64
	MLPThreshold  float64

	// LR is the fine-tuning learning rate (AdamW).
	LR float64
	// WeightDecay for AdamW.
	WeightDecay float64
	// ClipNorm > 0 enables gradient clipping.
	ClipNorm float64

	// DisableAttnSparsity / DisableMLPSparsity are ablation switches.
	DisableAttnSparsity bool
	DisableMLPSparsity  bool

	// Prime applies model.PrimeSparsity after construction, giving the sim
	// backbone the activation statistics of a pre-trained LLM (sparse
	// heavy-tailed MLP activations, local peaked attention). The paper
	// fine-tunes pre-trained checkpoints; experiments set this.
	Prime bool

	// Base, when non-nil, is a pre-trained backbone to clone instead of
	// initializing fresh weights — the "load the checkpoint, then apply
	// PEFT" pipeline the paper follows. Prime is ignored when Base is set
	// (the backbone's statistics are whatever training gave it).
	Base *nn.Transformer

	Seed uint64
}

// Normalized returns the config with every defaulted field resolved to the
// value New/NewBaseline would use. Exported so callers that key caches or
// job hashes on a Config (internal/jobs) normalize exactly the way the
// constructors do: two specs that build identical systems hash identically.
func (c Config) Normalized() Config {
	if c.Blk == 0 {
		c.Blk = 16
	}
	if c.PredictorRank == 0 {
		c.PredictorRank = 8
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// System is a live Long Exposure fine-tuning session.
type System struct {
	Cfg        Config
	Model      *nn.Transformer
	Exposer    *exposer.Exposer
	Predictors *predictor.Set
	Planner    *predictor.RuntimePlanner
	Opt        peft.Optimizer
}

// New builds the model, applies the PEFT method, and constructs the
// exposer/predictor stack (untrained — call PretrainPredictors).
func New(cfg Config) *System {
	cfg = cfg.Normalized()
	rng := tensor.NewRNG(cfg.Seed)
	m := buildModel(cfg, rng)
	peft.Apply(m, cfg.Method, cfg.PEFT, rng.Split())

	exp := exposer.New(exposer.Config{
		Blk:           cfg.Blk,
		AttnThreshold: cfg.AttnThreshold,
		MLPThreshold:  cfg.MLPThreshold,
	})
	set := predictor.NewSet(cfg.Spec.Config, exp, cfg.PredictorRank, rng.Split())
	rp := set.Planner()
	rp.DisableAttn = cfg.DisableAttnSparsity
	rp.DisableMLP = cfg.DisableMLPSparsity

	return &System{
		Cfg:        cfg,
		Model:      m,
		Exposer:    exp,
		Predictors: set,
		Planner:    rp,
		Opt:        peft.NewAdamW(cfg.LR, cfg.WeightDecay),
	}
}

// NewBaseline builds the dense PEFT-library baseline: the same model
// construction and PEFT method, no sparsity stack. Sharing cfg.Seed with a
// Long Exposure session yields identical initial weights, so comparisons
// are apples to apples.
func NewBaseline(cfg Config) *train.Engine {
	cfg = cfg.Normalized()
	rng := tensor.NewRNG(cfg.Seed)
	m := buildModel(cfg, rng)
	peft.Apply(m, cfg.Method, cfg.PEFT, rng.Split())
	return &train.Engine{
		Model:    m,
		Opt:      peft.NewAdamW(cfg.LR, cfg.WeightDecay),
		ClipNorm: cfg.ClipNorm,
	}
}

// buildModel constructs (and optionally primes) the backbone; New and
// NewBaseline share it so equal seeds mean equal weights.
func buildModel(cfg Config, rng *tensor.RNG) *nn.Transformer {
	if cfg.Base != nil {
		return train.CloneModel(cfg.Base, rng)
	}
	m := nn.NewTransformer(cfg.Spec.Config, rng)
	if cfg.Prime {
		model.PrimeSparsity(m, rng.Split(), cfg.Blk)
	}
	return m
}

// PretrainPredictors runs the offline §V-B phase: collect dense inference
// activations on calibration batches, then fit every layer's predictors.
func (s *System) PretrainPredictors(calibration [][][]int, tc predictor.TrainConfig) predictor.TrainStats {
	samples := predictor.Collect(s.Model, calibration)
	return s.Predictors.Train(samples, s.Cfg.Spec.Config.Heads, tc)
}

// Engine returns the fine-tuning engine running under predicted sparsity.
func (s *System) Engine() *train.Engine {
	return &train.Engine{
		Model:    s.Model,
		Opt:      s.Opt,
		Planner:  s.Planner,
		ClipNorm: s.Cfg.ClipNorm,
	}
}

// Densities reports the sparsity the pipeline achieves on the given
// batches: mean attention block density (active blocks / full block grid,
// the gpusim convention) and mean MLP neuron-block density.
func (s *System) Densities(batches [][][]int) (attn, mlp float64) {
	samples := predictor.Collect(s.Model, batches)
	var attnSum, mlpSum float64
	var attnN, mlpN int
	for _, sm := range samples {
		for li, lp := range s.Predictors.Layers {
			layouts := lp.Attn.Predict(sm.Layers[li].AttnInput, sm.Batch, sm.Seq, s.Exposer)
			for _, l := range layouts {
				attnSum += l.Density()
				attnN++
			}
			if lp.MLP != nil {
				blocks := lp.MLP.Predict(sm.Layers[li].MLPInput)
				mlpSum += float64(len(blocks)) / float64(lp.MLP.NBlk)
				mlpN++
			}
		}
	}
	if attnN > 0 {
		attn = attnSum / float64(attnN)
	}
	if mlpN > 0 {
		mlp = mlpSum / float64(mlpN)
	} else {
		mlp = 1
	}
	return
}
