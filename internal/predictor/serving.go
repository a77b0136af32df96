package predictor

import (
	"fmt"
	"math"

	"longexposure/internal/nn"
	"longexposure/internal/obs"
	"longexposure/internal/tensor"
)

// Serving-time contextual sparsity (ROADMAP item 1: the paper's thesis,
// served). A ServingPlanner is built once per base model and shared
// read-only by every sequence; each request gets a SequencePlanner that
// produces one nn.DecodePlan per decode step. Selection must stay off the
// critical path, so the estimator is deliberately cheap — SparseLoRA's
// SVD-style recipe (arXiv:2506.16500):
//
//   - MLP: when trained predictors (a Set) are attached, a block's score
//     is the trained linear head x·Ŵa + b on the step's embedding row;
//     otherwise a low-rank fallback scores block b as σ_b·|v_b·x|, where
//     (σ_b, v_b) is the top singular pair of that block's FC1 weight slab
//     (power iteration at construction — no runtime SVD).
//   - Attention: one shared low-rank sketch (P_q, P_k ∈ R^{d×r}) scores
//     KV-position blocks by q-projection · accumulated k-projection sum,
//     with attention-sink and recency blocks always kept (the shadowy
//     attention shapes the exposer pools: vertical + slash).
//
// Both estimators read only the step's embedding row — never a layer
// activation — so planning one step is O(d·(nBlk + r)) and allocation-free
// against the step arena. Quality is protected per SparseLoRA's
// sensitivity analysis: in auto mode the first and last layers stay dense,
// short prefixes attend densely, and any selection that covers every
// block degrades to the literal dense path (nil plan entry), which is
// what makes density 1.0 bit-identical by construction.

// ServingConfig tunes a ServingPlanner. The zero value serves defaults.
type ServingConfig struct {
	// Blk is the selection block size for MLP neuron blocks and attention
	// KV-position blocks (default 8; an attached Set's Blk wins).
	Blk int
	// Rank is the width of the attention sketch projections (default 4).
	Rank int
	// MLPDensity and AttnDensity are the auto-mode default targets when a
	// request doesn't set its own (default 0.5 each).
	MLPDensity, AttnDensity float64
	// SinkBlocks and RecentBlocks are always kept in attention selections
	// (defaults 1 and 2): the attention-sink prefix and the local window.
	SinkBlocks, RecentBlocks int
	// MinAttnBlocks keeps attention dense until the visible prefix spans
	// at least this many blocks (default 4) — short prefixes have nothing
	// worth skipping and everything to lose.
	MinAttnBlocks int
	// Metrics, when set, receives live per-layer serving densities — the
	// lexp_sparse_serving_* gauges.
	Metrics *obs.SparsityMetrics
	// Seed keys the fallback sketch projections (default 0xA77E); fixed so
	// plans are deterministic across replicas.
	Seed uint64
}

func (c *ServingConfig) fill() {
	if c.Blk <= 0 {
		c.Blk = 8
	}
	if c.Rank <= 0 {
		c.Rank = 4
	}
	if c.MLPDensity <= 0 || c.MLPDensity > 1 {
		c.MLPDensity = 0.5
	}
	if c.AttnDensity <= 0 || c.AttnDensity > 1 {
		c.AttnDensity = 0.5
	}
	if c.SinkBlocks <= 0 {
		c.SinkBlocks = 1
	}
	if c.RecentBlocks <= 0 {
		c.RecentBlocks = 2
	}
	if c.MinAttnBlocks <= 0 {
		c.MinAttnBlocks = 4
	}
	if c.Seed == 0 {
		c.Seed = 0xA77E
	}
}

// mlpEstimator is one layer's fallback block scorer: the top singular
// pair of each FC1 block slab, plus the block's max bias magnitude (a
// neuron can activate on bias alone).
type mlpEstimator struct {
	sigma []float32 // [nBlk]
	v     []float32 // [nBlk * dim], row b = right singular vector of slab b
	bmax  []float32 // [nBlk]
}

// ServingPlanner is the per-base, read-only estimator state. Safe for
// concurrent NewSequencePlanner calls; the sequence planners it hands out
// are single-sequence.
type ServingPlanner struct {
	cfg  ServingConfig
	base *nn.Transformer
	set  *Set // optional trained predictors (nil: fallback estimators)

	layers    int
	dim       int
	nBlk      int  // MLP neuron blocks per layer
	maxBlocks int  // attention KV blocks at MaxSeq
	mlpOK     bool // ReLU model: MLP sparsity is meaningful

	fallback []mlpEstimator // [layers]; nil entries where the Set covers
	pq, pk   []float32      // [dim * rank] shared attention sketch
}

// NewServingPlanner builds the serving-time planner for a base model.
// set may be nil (fallback estimators are derived from the base weights);
// when present its block size wins so trained predictors line up.
func NewServingPlanner(base *nn.Transformer, set *Set, cfg ServingConfig) *ServingPlanner {
	cfg.fill()
	if set != nil && set.Blk > 0 {
		cfg.Blk = set.Blk
	}
	c := base.Cfg
	p := &ServingPlanner{
		cfg:       cfg,
		base:      base,
		set:       set,
		layers:    c.Layers,
		dim:       c.Dim,
		nBlk:      (c.Hidden + cfg.Blk - 1) / cfg.Blk,
		maxBlocks: (c.MaxSeq + cfg.Blk - 1) / cfg.Blk,
		mlpOK:     c.Act == nn.ActReLU,
	}

	rng := tensor.NewRNG(cfg.Seed)
	p.pq = sketchProjection(p.dim, cfg.Rank, rng)
	p.pk = sketchProjection(p.dim, cfg.Rank, rng)

	if p.mlpOK {
		p.fallback = make([]mlpEstimator, p.layers)
		for li := 0; li < p.layers; li++ {
			if p.trainedMLP(li) != nil {
				continue
			}
			p.fallback[li] = buildMLPEstimator(base.Blocks[li].MLP, cfg.Blk, p.nBlk)
		}
	}
	return p
}

// trainedMLP returns the layer's trained predictor when one lines up with
// the planner's block geometry.
func (p *ServingPlanner) trainedMLP(li int) *MLPPredictor {
	if p.set == nil || li >= len(p.set.Layers) {
		return nil
	}
	mp := p.set.Layers[li].MLP
	if mp == nil || mp.Blk != p.cfg.Blk || mp.NBlk != p.nBlk || mp.Dim != p.dim {
		return nil
	}
	return mp
}

// sketchProjection draws a fixed random [dim × rank] projection.
func sketchProjection(dim, rank int, rng *tensor.RNG) []float32 {
	t := tensor.New(dim, rank)
	rng.XavierInit(t, dim, rank)
	return t.Data
}

// buildMLPEstimator extracts each FC1 block slab's top singular pair by
// power iteration. m.W1 stores the conceptual [dim → hidden] matrix as
// [hidden, dim]: row h is neuron h's input weights, so slab b is rows
// [b·blk, (b+1)·blk).
func buildMLPEstimator(m *nn.MLP, blk, nBlk int) mlpEstimator {
	d, H := m.Dim, m.Hidden
	est := mlpEstimator{
		sigma: make([]float32, nBlk),
		v:     make([]float32, nBlk*d),
		bmax:  make([]float32, nBlk),
	}
	w1, b1 := m.W1.W.Data, m.B1.W.Data
	mv := make([]float32, blk) // slab · v scratch
	for b := 0; b < nBlk; b++ {
		lo, hi := b*blk, (b+1)*blk
		if hi > H {
			hi = H
		}
		v := est.v[b*d : (b+1)*d]
		for j := range v {
			v[j] = 1
		}
		normalize(v)
		var sigma float32
		for it := 0; it < 8; it++ {
			// mv = M v; v ← Mᵀ mv, normalized. σ converges to ‖M v‖.
			for r := lo; r < hi; r++ {
				row := w1[r*d : (r+1)*d]
				var s float32
				for j, vv := range v {
					s += vv * row[j]
				}
				mv[r-lo] = s
			}
			clear(v)
			for r := lo; r < hi; r++ {
				row := w1[r*d : (r+1)*d]
				g := mv[r-lo]
				for j, wv := range row {
					v[j] += g * wv
				}
			}
			sigma = normalize(v)
		}
		est.sigma[b] = float32(math.Sqrt(float64(sigma))) // ‖MᵀMv‖ = σ²
		for r := lo; r < hi; r++ {
			if a := abs32(b1[r]); a > est.bmax[b] {
				est.bmax[b] = a
			}
		}
	}
	return est
}

func normalize(v []float32) float32 {
	var ss float64
	for _, x := range v {
		ss += float64(x) * float64(x)
	}
	n := float32(math.Sqrt(ss))
	if n == 0 {
		return 0
	}
	inv := 1 / n
	for i := range v {
		v[i] *= inv
	}
	return n
}

func abs32(x float32) float32 {
	if x < 0 {
		return -x
	}
	return x
}

// NewSequencePlanner hands out one sequence's planner for the requested
// sparsity options. Mode off (the zero value) returns (nil, nil) — the
// caller decodes dense. The returned planner owns all its scratch: a
// PlanStep allocates nothing beyond the plan's arena-backed block lists.
func (p *ServingPlanner) NewSequencePlanner(opts nn.SparsityOptions) (nn.DecodePlanner, error) {
	if err := opts.Validate("sparsity"); err != nil {
		return nil, err
	}
	if !opts.Enabled() {
		return nil, nil
	}
	mlpT, attnT := opts.MLPDensity, opts.AttnDensity
	if mlpT == 0 {
		mlpT = p.cfg.MLPDensity
	}
	if attnT == 0 {
		attnT = p.cfg.AttnDensity
	}
	scratch := p.nBlk
	if p.maxBlocks > scratch {
		scratch = p.maxBlocks
	}
	s := &SequencePlanner{
		sp:      p,
		forced:  opts.Mode == nn.SparsityForced,
		mlpT:    mlpT,
		attnT:   attnT,
		x:       make([]float32, p.dim),
		proj:    make([]float32, p.cfg.Rank),
		ksum:    make([]float32, p.maxBlocks*p.cfg.Rank),
		scores:  make([]float32, scratch),
		mlpSel:  make([][]int, p.layers),
		attnSel: make([][]int, p.layers),
	}
	return s, nil
}

// SequencePlanner plans one sequence's decode steps. Not safe for
// concurrent use — one per sequence, like the KV cache it mirrors.
type SequencePlanner struct {
	sp          *ServingPlanner
	forced      bool
	mlpT, attnT float64
	observed    int // positions ingested into the sketch

	x      []float32 // assembled embedding row scratch
	proj   []float32 // q/k projection scratch [rank]
	ksum   []float32 // per-KV-block accumulated k-projections [maxBlocks*rank]
	scores []float32 // block score scratch

	plan    nn.DecodePlan // reused across steps; consumed before the next
	mlpSel  [][]int
	attnSel [][]int
}

// BeginSequence implements nn.DecodePlanner: reset, then ingest the
// prefill rows (virtual prompt-tuning rows first, then prompt tokens) in
// cache order so the attention sketch covers everything the cache holds.
func (s *SequencePlanner) BeginSequence(prompt []int, ad *nn.DecodeAdapter) {
	s.observed = 0
	clear(s.ksum)
	pos := 0
	for r := 0; r < ad.PromptLen(); r++ {
		s.assembleVirtualRow(ad, r, pos)
		s.observe(pos)
		pos++
	}
	for _, id := range prompt {
		s.assembleTokenRow(id, pos)
		s.observe(pos)
		pos++
	}
}

// assembleTokenRow builds the model-input embedding row for token id at
// absolute position pos into s.x — the same row DecodeBatch assembles.
func (s *SequencePlanner) assembleTokenRow(id, pos int) {
	d := s.sp.dim
	m := s.sp.base
	tok := m.TokEmb.Table.W.Data[id*d : (id+1)*d]
	posRow := m.PosEmb.Table.W.Data[pos*d : (pos+1)*d]
	for j := range s.x {
		s.x[j] = tok[j] + posRow[j]
	}
}

// assembleVirtualRow is assembleTokenRow for a prompt-tuning row.
func (s *SequencePlanner) assembleVirtualRow(ad *nn.DecodeAdapter, r, pos int) {
	d := s.sp.dim
	prow := ad.Prompt.Data[r*d : (r+1)*d]
	posRow := s.sp.base.PosEmb.Table.W.Data[pos*d : (pos+1)*d]
	for j := range s.x {
		s.x[j] = prow[j] + posRow[j]
	}
}

// observe folds s.x's k-projection into its position block's summary.
func (s *SequencePlanner) observe(pos int) {
	sp := s.sp
	r := sp.cfg.Rank
	sum := s.ksum[(pos/sp.cfg.Blk)*r : (pos/sp.cfg.Blk+1)*r]
	for j, xv := range s.x {
		if xv == 0 {
			continue
		}
		row := sp.pk[j*r : (j+1)*r]
		for c, wv := range row {
			sum[c] += xv * wv
		}
	}
	s.observed = pos + 1
}

// PlanStep implements nn.DecodePlanner. pos is the token's absolute cache
// position; visible positions are 0..pos. Block lists land in ws and die
// with the step's Release.
func (s *SequencePlanner) PlanStep(id, pos int, ws *tensor.Arena) *nn.DecodePlan {
	sp := s.sp
	s.assembleTokenRow(id, pos)
	s.observe(pos)

	// q-projection of the step row for attention block scoring.
	r := sp.cfg.Rank
	qp := s.proj
	clear(qp)
	for j, xv := range s.x {
		if xv == 0 {
			continue
		}
		row := sp.pq[j*r : (j+1)*r]
		for c, wv := range row {
			qp[c] += xv * wv
		}
	}

	// Attention selection is position-based and shared across layers (the
	// sketch reads embeddings, not layer activations); MLP selection is
	// per layer (per-layer singular structure / trained heads differ).
	attnBlocks := s.selectAttn(pos, qp, ws)

	var mlpSum, attnSum float64
	for li := 0; li < sp.layers; li++ {
		mlpBlocks, mlpD := s.selectMLP(li, ws)
		aBlocks, attnD := attnBlocks, s.attnDensity(pos, attnBlocks)
		if !s.forced && (li == 0 || li == sp.layers-1) {
			// Sensitive layers stay dense in auto mode (SparseLoRA's
			// layer-sensitivity protection).
			mlpBlocks, mlpD = nil, 1
			aBlocks, attnD = nil, 1
		}
		s.mlpSel[li], s.attnSel[li] = mlpBlocks, aBlocks
		mlpSum += mlpD
		attnSum += attnD
		sp.cfg.Metrics.SetMLP(li, mlpD)
		sp.cfg.Metrics.SetAttn(li, attnD)
	}

	s.plan = nn.DecodePlan{
		Blk:         sp.cfg.Blk,
		MLP:         s.mlpSel,
		Attn:        s.attnSel,
		MLPDensity:  mlpSum / float64(sp.layers),
		AttnDensity: attnSum / float64(sp.layers),
	}
	return &s.plan
}

// selectMLP scores and picks one layer's neuron blocks. Returns (nil, 1)
// when the layer runs dense (GeLU model, full coverage, or no estimator).
func (s *SequencePlanner) selectMLP(li int, ws *tensor.Arena) ([]int, float64) {
	sp := s.sp
	if !sp.mlpOK {
		return nil, 1
	}
	nBlk := sp.nBlk
	k := int(math.Ceil(s.mlpT * float64(nBlk)))
	if k < 1 {
		k = 1
	}
	if k >= nBlk {
		return nil, 1 // full coverage: take the dense escape, bit-identical
	}

	scores := s.scores[:nBlk]
	if mp := sp.trainedMLP(li); mp != nil {
		// Trained linear head on the embedding row: scores = x·Ŵa + b.
		copy(scores, mp.Bias)
		wa, n := mp.Wa.Data, mp.NBlk
		for j, xv := range s.x {
			if xv == 0 {
				continue
			}
			row := wa[j*n : (j+1)*n]
			for c, wv := range row {
				scores[c] += xv * wv
			}
		}
	} else {
		est := sp.fallback[li]
		d := sp.dim
		for b := 0; b < nBlk; b++ {
			v := est.v[b*d : (b+1)*d]
			var dot float32
			for j, xv := range s.x {
				dot += xv * v[j]
			}
			scores[b] = est.sigma[b]*abs32(dot) + est.bmax[b]
		}
	}
	out := tensor.IntsIn(ws, k)
	topKAscending(scores, out)
	return out, float64(k) / float64(nBlk)
}

// selectAttn picks the visible KV-position blocks for a step: sink blocks
// and recent blocks always, plus the top-scoring middle blocks up to the
// density target. Returns nil for a dense step.
func (s *SequencePlanner) selectAttn(pos int, qp []float32, ws *tensor.Arena) []int {
	sp := s.sp
	blk := sp.cfg.Blk
	vb := (pos + 1 + blk - 1) / blk // visible blocks
	if !s.forced && vb < sp.cfg.MinAttnBlocks {
		return nil
	}
	sink, recent := sp.cfg.SinkBlocks, sp.cfg.RecentBlocks
	kb := int(math.Ceil(s.attnT * float64(vb)))
	if kb < sink+recent {
		kb = sink + recent
	}
	if kb >= vb {
		return nil // full coverage: dense escape
	}

	// Score the middle blocks [sink, vb-recent) by sketch similarity.
	lo, hi := sink, vb-recent
	r := sp.cfg.Rank
	scores := s.scores[:hi-lo]
	for b := lo; b < hi; b++ {
		sum := s.ksum[b*r : (b+1)*r]
		var d float32
		for c, qv := range qp {
			d += qv * sum[c]
		}
		scores[b-lo] = d
	}
	out := tensor.IntsIn(ws, kb)
	for i := 0; i < sink; i++ {
		out[i] = i
	}
	mid := out[sink : kb-recent]
	topKAscending(scores, mid)
	for i := range mid {
		mid[i] += lo
	}
	for i := 0; i < recent; i++ {
		out[kb-recent+i] = vb - recent + i
	}
	return out
}

// attnDensity is the realized density of an attention selection at pos.
func (s *SequencePlanner) attnDensity(pos int, blocks []int) float64 {
	if blocks == nil {
		return 1
	}
	blk := s.sp.cfg.Blk
	vb := (pos + 1 + blk - 1) / blk
	return float64(len(blocks)) / float64(vb)
}

// topKAscending writes the indices of the len(out) largest scores into
// out in ascending index order. scores is destroyed. Deterministic: ties
// break toward the lower index. Repeated max-extract — block counts are
// small enough that O(k·n) beats maintaining a heap.
func topKAscending(scores []float32, out []int) {
	for i := range out {
		best, bestV := -1, float32(math.Inf(-1))
		for j, v := range scores {
			if v > bestV {
				best, bestV = j, v
			}
		}
		scores[best] = float32(math.Inf(-1))
		// Insert ascending.
		at := i
		for at > 0 && out[at-1] > best {
			out[at] = out[at-1]
			at--
		}
		out[at] = best
	}
}

// String describes the planner for logs.
func (p *ServingPlanner) String() string {
	src := "fallback"
	if p.set != nil {
		src = "trained"
	}
	return fmt.Sprintf("predictor.ServingPlanner{blk=%d rank=%d layers=%d nblk=%d est=%s}",
		p.cfg.Blk, p.cfg.Rank, p.layers, p.nBlk, src)
}
