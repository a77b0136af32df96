package predictor

import (
	"time"

	"longexposure/internal/exposer"
	"longexposure/internal/nn"
	"longexposure/internal/obs"
	"longexposure/internal/sparse"
	"longexposure/internal/tensor"
)

// LayerPredictors bundles the attention and MLP predictors of one layer.
// MLP is nil for GeLU models (attention-only optimization, §VII-D).
type LayerPredictors struct {
	Attn *AttnPredictor
	MLP  *MLPPredictor
}

// Set holds the predictors of every layer plus the exposer whose pattern
// pool prediction results are categorized into.
type Set struct {
	Blk     int
	Exposer *exposer.Exposer
	Layers  []LayerPredictors
}

// NewSet constructs untrained predictors for every layer of cfg.
// rank is the low-rank width r ≪ d of the attention approximators.
func NewSet(cfg nn.Config, exp *exposer.Exposer, rank int, rng *tensor.RNG) *Set {
	blk := exp.Config().Blk
	s := &Set{Blk: blk, Exposer: exp}
	for i := 0; i < cfg.Layers; i++ {
		lp := LayerPredictors{
			Attn: NewAttnPredictor(cfg.Dim, cfg.Heads, rank, blk, rng),
		}
		if cfg.Act == nn.ActReLU {
			lp.MLP = NewMLPPredictor(cfg.Dim, cfg.Hidden, blk, rng)
		}
		s.Layers = append(s.Layers, lp)
	}
	return s
}

// TrainStats summarizes offline predictor training.
type TrainStats struct {
	AttnLoss, MLPLoss         float64 // final mean losses
	AttnRecall, MLPRecall     float64 // on the training samples
	AttnDensity, MLPPredRatio float64 // mean predicted densities
}

// Train fits every layer's predictors on collected samples and reports
// aggregate quality. The recall numbers correspond to the paper's §VII-C
// predictor evaluation (96.35% average recall for MLP predictors).
func (s *Set) Train(samples []Sample, heads int, cfg TrainConfig) TrainStats {
	var stats TrainStats
	var attnN, mlpN int

	for li, lp := range s.Layers {
		// Attention predictor.
		var targets []AttnTarget
		for _, sm := range samples {
			targets = append(targets,
				BuildAttnTargets(sm.Layers[li].AttnInput, sm.Layers[li].Probs, sm.Batch, sm.Seq, heads, s.Exposer)...)
		}
		if len(targets) > 0 {
			stats.AttnLoss += lp.Attn.TrainAttn(targets, cfg)
			attnN++
			// Measure recall of raw predicted masks against targets.
			for _, sm := range samples {
				masks := lp.Attn.PredictMasks(sm.Layers[li].AttnInput, sm.Batch, sm.Seq)
				trueMasks := s.Exposer.HeadMasks(sm.Layers[li].Probs, sm.Batch, heads)
				for h := range masks {
					stats.AttnRecall += MaskRecall(masks[h], trueMasks[h])
					stats.AttnDensity += masks[h].Density()
				}
			}
		}

		// MLP predictor.
		if lp.MLP == nil {
			continue
		}
		var mlpTargets []MLPTarget
		threshold := s.Exposer.Config().MLPThreshold
		for _, sm := range samples {
			ls := sm.Layers[li]
			switch {
			case ls.Mask != nil && ls.Hidden != nil:
				mlpTargets = append(mlpTargets,
					BuildFilteredMLPTarget(ls.MLPInput, ls.Mask, ls.Hidden, s.Blk, threshold))
			case ls.Mask != nil:
				mlpTargets = append(mlpTargets,
					BuildMLPTarget(ls.MLPInput, ls.Mask, s.Blk))
			}
		}
		if len(mlpTargets) > 0 {
			stats.MLPLoss += lp.MLP.TrainMLP(mlpTargets, cfg)
			mlpN++
			for _, tgt := range mlpTargets {
				pred := lp.MLP.Predict(tgt.X)
				r, _ := RecallPrecision(pred, tgt.Y)
				stats.MLPRecall += r
				stats.MLPPredRatio += float64(len(pred)) / float64(lp.MLP.NBlk)
			}
		}
	}

	if attnN > 0 {
		stats.AttnLoss /= float64(attnN)
		n := float64(attnN * len(samples) * heads)
		stats.AttnRecall /= n
		stats.AttnDensity /= n
	}
	if mlpN > 0 {
		stats.MLPLoss /= float64(mlpN)
		n := float64(mlpN * len(samples))
		stats.MLPRecall /= n
		stats.MLPPredRatio /= n
	}
	return stats
}

// RuntimePlanner adapts a trained Set to nn.Planner, timing every
// prediction so the engine can report predictor overhead separately
// (the "Prediction" bar of Figure 10).
type RuntimePlanner struct {
	Set *Set

	// DisableMLP forces dense MLPs even when predictors exist (used by the
	// attention-only ablation).
	DisableMLP bool
	// DisableAttn forces dense attention (MLP-only ablation).
	DisableAttn bool
	// Metrics, when set, receives the predicted per-layer densities — the
	// live view of how much shadowy sparsity each plan recovers. Updates
	// happen once per planned layer per step, outside the prediction
	// timing so the Predict phase stays honest.
	Metrics *obs.SparsityMetrics

	elapsed time.Duration
}

// Planner returns a fresh runtime planner over the set.
func (s *Set) Planner() *RuntimePlanner { return &RuntimePlanner{Set: s} }

// Layer implements nn.Planner.
func (rp *RuntimePlanner) Layer(i int) nn.LayerPlanner {
	return runtimeLayer{rp, i}
}

// TakeElapsed returns the accumulated prediction time and resets it.
func (rp *RuntimePlanner) TakeElapsed() time.Duration {
	e := rp.elapsed
	rp.elapsed = 0
	return e
}

type runtimeLayer struct {
	rp *RuntimePlanner
	li int
}

// PlanAttention implements nn.LayerPlanner.
func (rl runtimeLayer) PlanAttention(x *tensor.Tensor, batch, seq int) ([]*sparse.Layout, int) {
	rp := rl.rp
	if rp.DisableAttn {
		return nil, 0
	}
	t0 := time.Now()
	layouts := rp.Set.Layers[rl.li].Attn.Predict(x, batch, seq, rp.Set.Exposer)
	rp.elapsed += time.Since(t0)
	if len(layouts) > 0 {
		var d float64
		for _, l := range layouts {
			d += l.Density()
		}
		rp.Metrics.SetAttn(rl.li, d/float64(len(layouts)))
	}
	return layouts, rp.Set.Blk
}

// PlanMLP implements nn.LayerPlanner.
func (rl runtimeLayer) PlanMLP(x *tensor.Tensor, _, _ int) ([]int, int) {
	rp := rl.rp
	mp := rp.Set.Layers[rl.li].MLP
	if mp == nil || rp.DisableMLP {
		return nil, 0
	}
	t0 := time.Now()
	blocks := mp.Predict(x)
	rp.elapsed += time.Since(t0)
	if mp.NBlk > 0 {
		rp.Metrics.SetMLP(rl.li, float64(len(blocks))/float64(mp.NBlk))
	}
	return blocks, rp.Set.Blk
}
