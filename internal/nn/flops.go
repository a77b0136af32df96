package nn

// Analytic FLOP accounting for the decode path. The model counts matmul
// FLOPs only (2·M·N·K per GEMM) — layer norms, residuals, softmax and
// sampling are O(d) noise against the projections and are excluded so the
// numbers stay comparable across densities. Per new row at absolute
// position p (0-based, visible prefix p+1), each layer costs:
//
//	projections (Q,K,V,O)   4 · 2·d²            always dense
//	attention scores + AV   2 · 2·(p+1)·d       × attention plan density
//	MLP fc1 + fc2           2 · 2·d·hidden      × MLP plan density
//
// plus one 2·d·vocab head projection per step (last row only — the
// prefill skips the vocab projection for earlier rows, and so does the
// accounting), recorded per sequence of a DecodeBatch step over its own
// rows. The dense-equivalent number uses density 1 everywhere; executed
// scales the gated terms by the step plan's realized densities, matching
// the kernels: MLP selections apply to every row, attention selections
// only to single-row steps (DecodeBatch attends densely on multi-row
// steps). A forced density-1.0 plan yields full-coverage (nil) selections
// and density exactly 1, so executed == dense-equivalent exactly — no
// float drift, the identity the accounting tests pin.

// DecodeStats accumulates per-step FLOP and plan counters across a
// sequence's decode steps. Callers own the struct (preallocate it next to
// the KV cache); recording is plain field arithmetic — no allocation, no
// synchronization — so it is safe on the zero-alloc decode hot path but
// must not be shared across sequences.
type DecodeStats struct {
	Steps        int64 // decode steps recorded
	Rows         int64 // token rows processed (prompt rows included)
	PlannedSteps int64 // steps that ran under a non-nil sparsity plan

	DenseFLOPs     int64 // dense-equivalent FLOPs of every recorded step
	ExecFLOPs      int64 // FLOPs actually executed under the step plans
	MLPSavedFLOPs  int64 // dense − executed, MLP term
	AttnSavedFLOPs int64 // dense − executed, attention score/AV term

	PeakKVRows int64 // high-water cache length across recorded steps
}

// noteDecodeStep records one sequence's segment of a decode step: n rows
// appended at cache position p0, planned by plan (nil = dense).
func (m *Transformer) noteDecodeStep(st *DecodeStats, n, p0 int, plan *DecodePlan) {
	d := int64(m.Cfg.Dim)
	layers := int64(m.Cfg.Layers)
	projRow := 8 * d * d
	mlpRow := 4 * d * int64(m.Cfg.Hidden)
	var attnRows int64
	for r := 0; r < n; r++ {
		attnRows += int64(p0+r) + 1
	}
	proj := layers * int64(n) * projRow
	mlpDense := layers * int64(n) * mlpRow
	attnDense := layers * 4 * attnRows * d
	head := 2 * d * int64(m.Cfg.Vocab)

	mlpExec, attnExec := mlpDense, attnDense
	if plan != nil {
		st.PlannedSteps++
		mlpExec = int64(float64(mlpDense) * plan.MLPDensity)
		if n == 1 {
			attnExec = int64(float64(attnDense) * plan.AttnDensity)
		}
	}

	st.Steps++
	st.Rows += int64(n)
	st.DenseFLOPs += proj + mlpDense + attnDense + head
	st.ExecFLOPs += proj + mlpExec + attnExec + head
	st.MLPSavedFLOPs += mlpDense - mlpExec
	st.AttnSavedFLOPs += attnDense - attnExec
	if rows := int64(p0 + n); rows > st.PeakKVRows {
		st.PeakKVRows = rows
	}
}

// KVRowBytes is the resident size of one cached position across all
// layers: layers · (K+V) · dim · 4 bytes. PeakKVRows · KVRowBytes is a
// sequence's peak cache footprint.
func (m *Transformer) KVRowBytes() int64 {
	return int64(m.Cfg.Layers) * 2 * int64(m.Cfg.Dim) * 4
}

// TrainStepFLOPs estimates the matmul FLOPs of one fwd+bwd training step
// over batch sequences of seqLen tokens, under the same per-token model
// as decode (projections + causal-average attention + MLP + head, all
// dense) with the standard 3× forward multiplier for the backward pass.
func (m *Transformer) TrainStepFLOPs(batch, seqLen int) int64 {
	d := int64(m.Cfg.Dim)
	layers := int64(m.Cfg.Layers)
	tokens := int64(batch) * int64(seqLen)
	perTok := layers*(8*d*d+4*d*int64(m.Cfg.Hidden)) + 2*d*int64(m.Cfg.Vocab)
	attnPerTok := layers * 4 * d * (int64(seqLen) + 1) / 2
	return 3 * tokens * (perTok + attnPerTok)
}
