package main

import (
	le "longexposure"
	"longexposure/internal/model"
	"longexposure/internal/nn"
)

// metricDef names one reported metric. BENCHMARK.json lists the same names
// (a unit test keeps the two in step).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of lefinetune or longexpd would see.
// Both surfaces deliver a stream of progress events — completed steps with
// their loss, or token frames — so the metrics are phrased over events and
// are defined on every workload:
//
//	first_ms      time from asking to the first event: New/NewBaseline →
//	              first completed step; writing the request → first token
//	              frame (time to first token)
//	gap_ms        median time between consecutive events: one Engine.Step;
//	              a stream's mean gap between token frames, the wait for
//	              the first frame counted as a gap (at one scheduler thread
//	              the daemon delivers frames in bursts of dozens: the median
//	              single gap is near zero, and the mean of the gaps after
//	              the first frame swings with where the bursts fall)
//	tokens_per_s  tokens completed per second of the timed window
//	setup_s       everything before the first timed operation
//
// The tail of the gaps (gap_p99_ms and the like) is a detail row, not an
// end-to-end metric: its run-to-run spread on this box is a quarter of its
// value, wider than any bound it could be given.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"first_ms", "ms"},
	{"gap_ms", "ms"},
	{"tokens_per_s", "tokens/s"},
}

// perLayer are the traced run's metrics, named after the repo's packages.
// A metric a workload has no work for reads 0 there (predictor.plan_ms on
// finetune.dense, infer.queue_wait_ms on finetune.*).
var perLayer = []metricDef{
	{"tensor.gemm_train_ms", "ms"},
	{"tensor.gemm_m1_f32_us", "us"},
	{"tensor.gemm_m1_int8_us", "us"},
	{"sparse.attn_ms", "ms"},
	{"sparse.mlp_ms", "ms"},
	{"sparse.decode_mlp_us", "us"},
	{"predictor.plan_ms", "ms"},
	{"predictor.pretrain_s", "s"},
	{"predictor.attn_recall", "ratio"},
	{"predictor.mlp_recall", "ratio"},
	{"predictor.attn_density", "ratio"},
	{"predictor.mlp_density", "ratio"},
	{"predictor.serve_plan_us", "us"},
	{"exposer.expose_ms", "ms"},
	{"nn.forward_ms", "ms"},
	{"nn.backward_ms", "ms"},
	{"peft.optim_ms", "ms"},
	{"nn.prefill_ms", "ms"},
	{"nn.decode_step_us", "us"},
	{"infer.tokens_per_s_b1", "tokens/s"},
	{"infer.tokens_per_s_b4", "tokens/s"},
	{"infer.batch_efficiency", "ratio"},
	{"infer.queue_wait_ms", "ms"},
	{"infer.prefill_ms", "ms"},
	{"infer.decode_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"jobs.finetune_s", "s"},
	{"registry.publish_ms", "ms"},
	{"registry.load_ms", "ms"},
	{"proc.cpu_ms_per_token", "ms"},
	{"proc.cpu_ms_per_step", "ms"},
	{"proc.rss_mb", "MB"},
	{"trace_overhead.first_ms", "ratio"},
	{"trace_overhead.gap_ms", "ratio"},
	{"trace_overhead.tokens_per_s", "ratio"},
}

// checkpointSeed initialises the model of every workload: the fine-tuned
// model, and the base and adapters of the serve jobs. The model is the
// checkpoint a user brings, not an input; -seed makes the inputs (corpus,
// calibration batches, prompts, the order of requests). Seeding the model
// from -seed as well moved finetune.sparse's step time by ±15% from seed to
// seed — different weights, different predicted density — which is a
// different model on every run, not a steadier look at one.
const checkpointSeed = 1

// shape is the model geometry a workload runs at; the layer probes of the
// traced run use the same one.
type shape struct {
	spec       le.Spec
	blk        int
	batch, seq int
}

// finetuneParams describes an in-process fine-tune workload, driven through
// the root longexposure API exactly as cmd/lefinetune drives it.
type finetuneParams struct {
	shape
	sparse bool
	// warmup steps end each set-up; the first of them is first_ms.
	warmup int
	// verifySteps is the length of the dense reference run behind loss_gap
	// (sparse workloads only).
	verifySteps int
}

// serveParams describes a workload against a child longexpd over loopback.
type serveParams struct {
	clients   int    // closed-loop clients
	adapters  int    // adapters on one shared base, alternating per request
	sparsity  string // decode.sparsity.mode of every request ("" = dense)
	precision string // precision the job publishes ("" = f32)
}

type workload struct {
	name, why string
	finetune  *finetuneParams
	serve     *serveParams
}

// The serve workloads' adapters come from fine-tune jobs of this geometry
// on the 4-layer sim miniature — the only ≥3-layer model reachable through
// POST /v1/jobs, so auto sparsity (first and last layer dense) has layers
// left to thin.
const (
	jobModel = "OPT-1.3B"
	jobSteps = 8
	jobBatch = 2
	jobSeq   = 64
	jobBlk   = 8
)

// Serve traffic: greedy, no stop token, so every request emits exactly
// maxTokens tokens.
const (
	maxTokens      = 96
	warmupRequests = 8
)

func sim() le.Spec { return le.Sim(le.OPT1p3B()) }

// seq512Spec is the 512-token regime of the paper: attention is the
// largest matmul share, where at seq 128 the neuron-sparse MLP is.
func seq512Spec() le.Spec {
	return le.Spec{Family: model.FamilyOPT, Config: nn.Config{
		Name: "sim-seq512", Vocab: 128, Dim: 128, Layers: 4, Heads: 4, Hidden: 512, MaxSeq: 544, Act: nn.ActReLU,
	}}
}

var workloads = []workload{
	{
		name:     "finetune.dense",
		why:      "PEFT-library baseline (paper Fig. 10): bypasses exposer/predictor/sparse, so only tensor GEMM changes may move it",
		finetune: &finetuneParams{shape: shape{sim(), 8, 2, 128}, warmup: 5},
	},
	{
		name:     "finetune.sparse",
		why:      "the paper's headline path: predictor planning and sparse SDD/DSD/FC1/FC2 on every step; pre-training lands in setup_s",
		finetune: &finetuneParams{shape: shape{sim(), 8, 2, 128}, sparse: true, warmup: 5, verifySteps: 20},
	},
	{
		name:     "finetune.sparse.seq512",
		why:      "same layers at 512 tokens, where block-sparse attention and the sequence predictor dominate instead of the MLP",
		finetune: &finetuneParams{shape: shape{seq512Spec(), 16, 1, 512}, sparse: true, warmup: 2, verifySteps: 6},
	},
	{
		name:  "serve.single",
		why:   "one closed-loop client, batch occupancy 1, no queue: pure latency, and the bypass for any batching change",
		serve: &serveParams{clients: 1, adapters: 1},
	},
	{
		name:  "serve.batch",
		why:   "four closed-loop clients on two adapters of one base: continuous batching with heterogeneous adapters",
		serve: &serveParams{clients: 4, adapters: 2},
	},
	{
		name:  "serve.sparse",
		why:   "serve.batch with decode.sparsity.mode auto: per-sequence plans and the gather/scatter decode kernels on the step",
		serve: &serveParams{clients: 4, adapters: 2, sparsity: "auto"},
	},
	{
		name:  "serve.int8",
		why:   "four clients on an int8 base: the only workload where the packed m=1 cores and fused dequant can show",
		serve: &serveParams{clients: 4, adapters: 1, precision: "int8"},
	},
}
