// Package longexposure is the public API of the Long Exposure
// reproduction: a system that accelerates parameter-efficient fine-tuning
// (PEFT) of transformer language models by exposing, predicting and
// exploiting the sparsity hidden in sequence-level fine-tuning ("shadowy
// sparsity", SC'24).
//
// # Quick start
//
//	sys := longexposure.New(longexposure.Config{
//		Spec:   longexposure.SimSmall(longexposure.ActReLU),
//		Method: longexposure.LoRA,
//	})
//	sys.PretrainPredictors(calibrationBatches, longexposure.TrainConfig{})
//	result := sys.Engine().Run(batches, epochs)
//
// Long runs are cancellable and observable through the context-aware
// variant, Engine.RunContext(ctx, batches, epochs, hook), which reports
// per-step loss and phase times to the hook.
//
// # Service entry point
//
// cmd/longexpd serves fine-tuning sessions and paper experiments as
// managed jobs over HTTP (internal/jobs + internal/serve): POST /v1/jobs
// queues work onto a priority scheduler and bounded worker pool,
// GET /v1/jobs/{id}/events streams per-step progress as server-sent
// events, DELETE cancels, and identical resubmissions are served from a
// result cache. NewJobStore/NewServer expose the same subsystem to
// embedders.
//
// # Serving
//
// The downstream half closes the loop: completed fine-tuning jobs publish
// their trainable delta into a content-addressed adapter registry
// (internal/registry), and an inference gateway (internal/infer) serves
// those adapters with KV-cached decoding — bit-identical to the naive
// full-prefix re-run, ~20× the tokens/s at sim scale — and continuous
// batching, attaching per-request adapters functionally over one shared
// frozen base. POST /v1/generate streams tokens as server-sent events;
// /v1/adapters lists, inspects and deletes artifacts.
//
// The package re-exports the stable surface of the internal packages:
// model specs (paper Table II), PEFT methods (Table I), the Long Exposure
// session (core) and the experiment drivers that regenerate every paper
// table and figure.
package longexposure

import (
	"longexposure/internal/account"
	"longexposure/internal/core"
	"longexposure/internal/data"
	"longexposure/internal/experiments"
	"longexposure/internal/infer"
	"longexposure/internal/jobs"
	"longexposure/internal/limit"
	"longexposure/internal/model"
	"longexposure/internal/nn"
	"longexposure/internal/obs"
	"longexposure/internal/peft"
	"longexposure/internal/predictor"
	"longexposure/internal/registry"
	"longexposure/internal/serve"
	"longexposure/internal/slo"
	"longexposure/internal/trace"
	"longexposure/internal/train"
)

// Config assembles a Long Exposure fine-tuning session (see core.Config).
type Config = core.Config

// System is a live Long Exposure session.
type System = core.System

// TrainConfig tunes offline predictor training.
type TrainConfig = predictor.TrainConfig

// Engine is the phase-timed fine-tuning engine.
type Engine = train.Engine

// Batch is a fixed-shape training batch.
type Batch = data.Batch

// Example is one training/evaluation item.
type Example = data.Example

// Spec is a named model configuration.
type Spec = model.Spec

// Method selects the fine-tuning strategy.
type Method = peft.Method

// Activation selects the MLP nonlinearity.
type Activation = nn.Activation

// Fine-tuning methods (paper Table I).
const (
	FullFT  = peft.FullFT
	LoRA    = peft.LoRA
	Adapter = peft.Adapter
	BitFit  = peft.BitFit
	PTuning = peft.PTuning
)

// Activations.
const (
	ActReLU = nn.ActReLU
	ActGeLU = nn.ActGeLU
)

// New builds a Long Exposure session: model + PEFT method + exposer +
// predictors + dynamic-aware operators.
func New(cfg Config) *System { return core.New(cfg) }

// NewBaseline builds the dense PEFT baseline sharing cfg's initialization.
func NewBaseline(cfg Config) *Engine { return core.NewBaseline(cfg) }

// Model zoo (paper Table II) and sim-scale variants.
var (
	OPT125M   = model.OPT125M
	OPT350M   = model.OPT350M
	OPT1p3B   = model.OPT1p3B
	OPT2p7B   = model.OPT2p7B
	GPT2Large = model.GPT2Large
	GPT2XL    = model.GPT2XL
	Sim       = model.Sim
	SimSmall  = model.SimSmall
)

// Workload generators (synthetic analogues of the paper's datasets).
var (
	NewE2ECorpus    = data.NewE2ECorpus
	NewAlpacaCorpus = data.NewAlpacaCorpus
	Tasks           = data.Tasks
	Batches         = data.Batches
)

// EvaluateTask measures restricted-choice accuracy on a task's examples.
var EvaluateTask = train.EvaluateTask

// Perplexity evaluates exp(mean NLL) over batches without training.
var Perplexity = train.Perplexity

// Experiments: regenerate any paper table or figure by id ("table1",
// "fig7", …). See internal/experiments for the full registry.
type ExperimentOptions = experiments.Options

// Report is a regenerated paper artifact.
type Report = experiments.Report

// RunExperiment regenerates one paper artifact.
func RunExperiment(id string, o ExperimentOptions) (*Report, error) {
	return experiments.Run(id, o)
}

// ExperimentIDs lists the available experiment ids.
func ExperimentIDs() []string { return experiments.IDs() }

// Job service: run fine-tuning sessions and experiments as queued,
// cancellable, observable jobs (what cmd/longexpd serves over HTTP).

// JobStore is the scheduler + worker pool + result cache behind the
// service.
type JobStore = jobs.Store

// JobSpec is the JSON job submission.
type JobSpec = jobs.Spec

// JobServer is the HTTP API over a JobStore.
type JobServer = serve.Server

// NewJobStore builds a job store and starts its worker pool.
func NewJobStore(cfg jobs.Config) *JobStore { return jobs.NewStore(cfg) }

// NewServer builds the HTTP job API over a store. Options enable optional
// subsystems; pass WithRegistry to serve the inference gateway too.
func NewServer(store *JobStore, opts ...serve.Option) *JobServer { return serve.New(store, opts...) }

// WithRegistry enables the adapter CRUD and generation endpoints over a
// registry (pair with jobs.Config.Registry for auto-publish).
var WithRegistry = serve.WithRegistry

// Serving: adapter artifacts and the KV-cached generation engine.

// Model is the decoder-only transformer (the shared frozen base serving
// decodes on).
type Model = nn.Transformer

// GenerateConfig tunes autoregressive decoding (nn.Generate and the
// KV-cached nn.Transformer.GenerateCachedCfg).
type GenerateConfig = nn.GenerateConfig

// AdapterRegistry is the content-addressed adapter artifact store.
type AdapterRegistry = registry.Store

// AdapterManifest describes one published adapter artifact.
type AdapterManifest = registry.Manifest

// GenerateEngine is the continuous-batching KV-cached generation engine.
type GenerateEngine = infer.Engine

// GenerateRequest is one generation submission to a GenerateEngine.
type GenerateRequest = infer.Request

// OpenRegistry opens (creating if needed) an adapter registry directory.
func OpenRegistry(dir string) (*AdapterRegistry, error) { return registry.Open(dir) }

// NewGenerateEngine starts a generation engine over a shared frozen base.
func NewGenerateEngine(base *Model, cfg infer.Config) *GenerateEngine { return infer.New(base, cfg) }

// BuildBase rebuilds the frozen base model an adapter artifact names,
// bit-for-bit (registry.Manifest.Base → model).
var BuildBase = jobs.BuildBase

// ExtractDelta returns a fine-tuned model's detachable parameter delta —
// what jobs publish into the registry.
var ExtractDelta = peft.Delta

// CompileAdapter turns an artifact's parameters into decode-time weights.
var CompileAdapter = infer.Compile

// Observability and traffic control (internal/obs + internal/limit).

// MetricsRegistry is the zero-alloc-on-hot-path metrics registry behind
// GET /metrics: counters, gauges, log-bucket histograms, Prometheus text
// exposition. Share one registry across jobs.Config.Obs,
// AdapterRegistry.Instrument and WithMetrics for full coverage.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// WithMetrics attaches a metrics registry to a server: per-route HTTP
// instruments plus the GET /metrics endpoint.
var WithMetrics = serve.WithMetrics

// WithLimits attaches the traffic-control plane to a server: per-tenant
// and global token-bucket rate limiting plus load-shedding admission
// control (429 + Retry-After) on the expensive endpoints.
var WithLimits = serve.WithLimits

// ServerLimitConfig configures WithLimits.
type ServerLimitConfig = serve.LimitConfig

// RateLimitConfig configures the rate-limit tiers inside a
// ServerLimitConfig (limit.Config).
type RateLimitConfig = limit.Config

// SLOEngine evaluates declarative service-level objectives over the live
// metrics registry on a fixed tick: windowed good/total rates, Google-SRE
// multi-window multi-burn-rate alerting (pending → firing → resolved),
// error-budget accounting, lexp_slo_* instruments, and an alert-event
// stream served at GET /v1/alerts.
type SLOEngine = slo.Engine

// SLOConfig declares the objectives and alert windows an SLOEngine
// evaluates. DefaultSLOConfig returns the built-in objective set.
type SLOConfig = slo.Config

// DefaultSLOConfig is the built-in objective set: generate latency and
// availability, admission queue wait, job failures, and serving-density
// drift.
func DefaultSLOConfig() SLOConfig { return slo.DefaultConfig() }

// NewSLOEngine builds an SLO engine over cfg; Deps.Metrics must be the
// same registry the server and job store are instrumented with. The
// caller owns Start/Stop.
func NewSLOEngine(cfg SLOConfig, d slo.Deps) (*SLOEngine, error) { return slo.New(cfg, d) }

// FlightRecorder is the black-box crash recorder: bounded rings of alert
// transitions, slog records, span trees and per-tick metric deltas,
// dumped atomically to disk on alert-firing, SIGQUIT and panic, and
// served live at GET /debug/flightrecorder.
type FlightRecorder = slo.Recorder

// NewFlightRecorder builds a flight recorder; attach it to an engine via
// slo.Deps.Recorder and wrap your logger with its LogHandler.
func NewFlightRecorder(cfg slo.RecorderConfig, tr *trace.Tracer) *FlightRecorder {
	return slo.NewRecorder(cfg, tr)
}

// WithSLO attaches an SLO engine to a server: GET /debug/slo reports,
// the GET /v1/alerts SSE stream, GET /debug/flightrecorder (when a
// recorder is attached), and readiness gating while a critical objective
// fires.
var WithSLO = serve.WithSLO

// AccountPlane is the wide-event resource-accounting plane: one
// structured record per completed generate request, fine-tune job and
// train run — identity, outcome, and the full resource vector (tokens,
// dense-equivalent vs executed FLOPs and the sparsity saving, peak KV
// footprint, arena bytes, queue and phase durations) — kept in a bounded
// ring, rolled up per tenant, folded into lexp_account_* metrics, and
// optionally persisted to a crash-tolerant segmented binary log.
type AccountPlane = account.Plane

// AccountConfig sizes an AccountPlane (ring, segment/retention policy,
// metrics fold).
type AccountConfig = account.Config

// AccountEvent is one wide accounting record.
type AccountEvent = account.Event

// NewAccountPlane opens an accounting plane, replaying any events
// already on disk when cfg.Dir is set.
func NewAccountPlane(cfg AccountConfig) (*AccountPlane, error) { return account.New(cfg) }

// WithAccounting attaches an accounting plane to a server:
// GET /debug/events (filtered wide-event queries with ?agg= rollups)
// and, when usageAPI is set, GET /v1/usage per-tenant rollups. Pair it
// with JobsConfig.Account on the same plane.
var WithAccounting = serve.WithAccounting
