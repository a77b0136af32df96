package obs

import (
	"strconv"
	"sync"
	"sync/atomic"
)

// This file is the repository's metric catalogue: one constructor per
// subsystem, each registering its instruments under stable lexp_* names
// and returning pre-resolved handles so hot paths never touch the
// registry again. Every constructor accepts a nil registry and then
// returns a bundle of nil (no-op) handles, so subsystems build and update
// their bundle unconditionally. README "Operations" documents the full catalogue;
// changes here should keep that table in sync.

// TrainMetrics instruments train.Engine's step loop.
type TrainMetrics struct {
	Steps       *Counter   // lexp_train_steps_total
	Tokens      *Counter   // lexp_train_tokens_total
	StepSeconds *Histogram // lexp_train_step_seconds
	Loss        *Gauge     // lexp_train_loss

	// Per-phase wall-clock totals (Figure 10's bars, as counters).
	PhaseForward, PhaseBackward, PhaseOptim, PhasePredict *Counter

	// Workspace-arena traffic: gets that reused a pooled buffer vs. ones
	// that had to allocate. A healthy steady state adds only to gets.
	ArenaGets, ArenaMisses *Counter
}

// NewTrainMetrics registers the training instruments.
func NewTrainMetrics(r *Registry) *TrainMetrics {
	phase := r.CounterVec("lexp_train_phase_seconds_total",
		"Cumulative wall-clock per fine-tuning phase.", "phase")
	return &TrainMetrics{
		Steps:       r.Counter("lexp_train_steps_total", "Completed fine-tuning steps."),
		Tokens:      r.Counter("lexp_train_tokens_total", "Tokens consumed by fine-tuning steps."),
		StepSeconds: r.Histogram("lexp_train_step_seconds", "Wall-clock of one fine-tuning step.", DurationBuckets),
		Loss:        r.Gauge("lexp_train_loss", "Loss of the most recent fine-tuning step."),

		PhaseForward:  phase.With("forward"),
		PhaseBackward: phase.With("backward"),
		PhaseOptim:    phase.With("optim"),
		PhasePredict:  phase.With("predict"),

		ArenaGets:   r.Counter("lexp_train_arena_gets_total", "Workspace-arena buffer gets during training steps."),
		ArenaMisses: r.Counter("lexp_train_arena_misses_total", "Workspace-arena gets that had to allocate a fresh buffer."),
	}
}

// InferMetrics instruments infer.Engine's continuous-batching scheduler.
type InferMetrics struct {
	SchedulerSteps *Counter   // lexp_infer_scheduler_steps_total
	Tokens         *Counter   // lexp_infer_tokens_total
	Admitted       *Counter   // lexp_infer_admitted_total
	BatchOccupancy *Histogram // lexp_infer_batch_occupancy
	Active         *Gauge     // lexp_infer_active_sequences
	QueueDepth     *Gauge     // lexp_infer_queue_depth
	KVRows         *Gauge     // lexp_infer_kv_rows
	SeqSeconds     *Histogram // lexp_infer_sequence_seconds

	// Batch-level contextual-sparsity accounting: how many planned
	// (sparse) steps the scheduler ran, and the mean realized densities
	// across the last batch's plans — the serving-wide companions of the
	// per-layer lexp_sparse_serving_* gauges.
	SparseSteps     *Counter // lexp_infer_sparse_steps_total
	PlanMLPDensity  *Gauge   // lexp_infer_plan_mlp_density
	PlanAttnDensity *Gauge   // lexp_infer_plan_attn_density

	retired                                               *CounterVec
	retStop, retLength, retMaxSeq, retCancelled, retError *Counter
}

// NewInferMetrics registers the inference instruments.
func NewInferMetrics(r *Registry) *InferMetrics {
	m := &InferMetrics{
		SchedulerSteps: r.Counter("lexp_infer_scheduler_steps_total", "Continuous-batching scheduler iterations."),
		Tokens:         r.Counter("lexp_infer_tokens_total", "Tokens emitted by the generation engine."),
		Admitted:       r.Counter("lexp_infer_admitted_total", "Sequences admitted into the decode batch."),
		BatchOccupancy: r.Histogram("lexp_infer_batch_occupancy", "Active sequences per scheduler step.", CountBuckets),
		Active:         r.Gauge("lexp_infer_active_sequences", "Sequences currently decoding."),
		QueueDepth:     r.Gauge("lexp_infer_queue_depth", "Submitted sequences awaiting admission."),
		KVRows:         r.Gauge("lexp_infer_kv_rows", "KV-cache rows resident across active sequences."),
		SeqSeconds:     r.Histogram("lexp_infer_sequence_seconds", "Sequence lifetime from admission to retirement.", DurationBuckets),

		SparseSteps:     r.Counter("lexp_infer_sparse_steps_total", "Decode steps executed under a contextual-sparsity plan."),
		PlanMLPDensity:  r.Gauge("lexp_infer_plan_mlp_density", "Mean realized MLP block density across the last batch's plans (1 = dense)."),
		PlanAttnDensity: r.Gauge("lexp_infer_plan_attn_density", "Mean realized attention block density across the last batch's plans (1 = dense)."),

		retired: r.CounterVec("lexp_infer_retired_total",
			"Sequences retired from the decode batch, by finish reason.", "reason"),
	}
	m.retStop = m.retired.With("stop")
	m.retLength = m.retired.With("length")
	m.retMaxSeq = m.retired.With("max_seq")
	m.retCancelled = m.retired.With("cancelled")
	m.retError = m.retired.With("error")
	return m
}

// Retired returns the cached retirement counter for a finish reason.
func (m *InferMetrics) Retired(reason string) *Counter {
	switch reason {
	case "stop":
		return m.retStop
	case "length":
		return m.retLength
	case "max_seq":
		return m.retMaxSeq
	case "cancelled":
		return m.retCancelled
	default:
		return m.retError
	}
}

// JobsMetrics instruments the jobs.Store scheduler and worker pool.
type JobsMetrics struct {
	Submitted     *Counter   // lexp_jobs_submitted_total
	CacheHits     *Counter   // lexp_jobs_cache_hits_total
	QueueDepth    *Gauge     // lexp_jobs_queue_depth
	Running       *Gauge     // lexp_jobs_running
	WaitSeconds   *Histogram // lexp_jobs_wait_seconds
	RunSeconds    *Histogram // lexp_jobs_run_seconds
	Events        *Counter   // lexp_jobs_events_total
	EventsDropped *Counter   // lexp_jobs_events_dropped_total

	Done, Failed, Cancelled *Counter // lexp_jobs_completed_total{status}
}

// NewJobsMetrics registers the job-service instruments.
func NewJobsMetrics(r *Registry) *JobsMetrics {
	completed := r.CounterVec("lexp_jobs_completed_total",
		"Jobs reaching a terminal status.", "status")
	return &JobsMetrics{
		Submitted:     r.Counter("lexp_jobs_submitted_total", "Jobs accepted by Submit."),
		CacheHits:     r.Counter("lexp_jobs_cache_hits_total", "Submissions served instantly from the result cache."),
		QueueDepth:    r.Gauge("lexp_jobs_queue_depth", "Jobs queued awaiting a worker."),
		Running:       r.Gauge("lexp_jobs_running", "Jobs currently executing."),
		WaitSeconds:   r.Histogram("lexp_jobs_wait_seconds", "Queue wait from submission to worker pickup.", DurationBuckets),
		RunSeconds:    r.Histogram("lexp_jobs_run_seconds", "Job execution wall-clock.", DurationBuckets),
		Events:        r.Counter("lexp_jobs_events_total", "Events published on job streams."),
		EventsDropped: r.Counter("lexp_jobs_events_dropped_total", "Events dropped from slow subscribers' bounded backlogs."),

		Done:      completed.With("done"),
		Failed:    completed.With("failed"),
		Cancelled: completed.With("cancelled"),
	}
}

// HTTPMetrics instruments the serve mux, per route.
type HTTPMetrics struct {
	Requests *CounterVec   // lexp_http_requests_total{route,code}
	Latency  *HistogramVec // lexp_http_request_seconds{route}
	InFlight *Gauge        // lexp_http_inflight
}

// NewHTTPMetrics registers the HTTP instruments.
func NewHTTPMetrics(r *Registry) *HTTPMetrics {
	return &HTTPMetrics{
		Requests: r.CounterVec("lexp_http_requests_total",
			"HTTP requests served, by route pattern and status class.", "route", "code"),
		Latency: r.HistogramVec("lexp_http_request_seconds",
			"HTTP request latency, by route pattern.", DurationBuckets, "route"),
		InFlight: r.Gauge("lexp_http_inflight", "HTTP requests currently being served."),
	}
}

// GatewayMetrics instruments the serve gateway's model and adapter caches.
type GatewayMetrics struct {
	AdapterHits      *Counter  // lexp_gateway_adapter_cache_hits_total
	AdapterMisses    *Counter  // lexp_gateway_adapter_cache_misses_total
	AdapterEvictions *Counter  // lexp_gateway_adapter_cache_evictions_total
	Engines          *Gauge    // lexp_gateway_engines
	BaseWeightBytes  *GaugeVec // lexp_base_weight_bytes{precision}
}

// NewGatewayMetrics registers the gateway instruments.
func NewGatewayMetrics(r *Registry) *GatewayMetrics {
	return &GatewayMetrics{
		AdapterHits:      r.Counter("lexp_gateway_adapter_cache_hits_total", "Generate requests served from the compiled-adapter cache."),
		AdapterMisses:    r.Counter("lexp_gateway_adapter_cache_misses_total", "Generate requests that loaded and compiled an adapter artifact."),
		AdapterEvictions: r.Counter("lexp_gateway_adapter_cache_evictions_total", "Compiled adapters evicted after artifact deletion."),
		Engines:          r.Gauge("lexp_gateway_engines", "Distinct base-model engines resident in the gateway."),
		BaseWeightBytes: r.GaugeVec("lexp_base_weight_bytes",
			"Resident weight bytes of base models in the gateway, by storage precision.", "precision"),
	}
}

// RegistryMetrics instruments the adapter artifact store.
type RegistryMetrics struct {
	Adapters  *Gauge   // lexp_registry_adapters
	Publishes *Counter // lexp_registry_publishes_total
	Loads     *Counter // lexp_registry_loads_total
	Deletes   *Counter // lexp_registry_deletes_total
}

// NewRegistryMetrics registers the artifact-store instruments.
func NewRegistryMetrics(r *Registry) *RegistryMetrics {
	return &RegistryMetrics{
		Adapters:  r.Gauge("lexp_registry_adapters", "Adapter artifacts resident in the registry."),
		Publishes: r.Counter("lexp_registry_publishes_total", "Adapter artifacts published (including idempotent republish)."),
		Loads:     r.Counter("lexp_registry_loads_total", "Adapter artifact weight loads from disk."),
		Deletes:   r.Counter("lexp_registry_deletes_total", "Adapter artifacts deleted."),
	}
}

// SparsityMetrics exposes the exposer/predictor path's per-layer density
// — the live view of how much shadowy sparsity the run recovers. Set
// calls land on the training hot path (once per planned layer per step),
// so resolved gauge handles are cached in an atomically-published slice:
// after a layer's first observation, updates are lock-free and
// allocation-free, honoring the package design rule that With belongs at
// construction time.
type SparsityMetrics struct {
	attn, mlp *GaugeVec

	mu    sync.Mutex               // guards slice growth
	attnG atomic.Pointer[[]*Gauge] // snapshot of per-layer handles
	mlpG  atomic.Pointer[[]*Gauge]
}

// NewSparsityMetrics registers the sparsity instruments.
func NewSparsityMetrics(r *Registry) *SparsityMetrics {
	return &SparsityMetrics{
		attn: r.GaugeVec("lexp_sparse_attn_density",
			"Mean predicted attention block density (fraction of blocks kept), by layer.", "layer"),
		mlp: r.GaugeVec("lexp_sparse_mlp_density",
			"Predicted MLP neuron-block density (fraction of blocks kept), by layer.", "layer"),
	}
}

// NewServingSparsityMetrics registers the serving-side density gauges —
// the same shape as the training instruments but a distinct
// lexp_sparse_serving_* family, because one registry typically carries
// both a jobs.Store (which registers the training family) and the
// inference gateway, and registration is panic-on-duplicate by design.
func NewServingSparsityMetrics(r *Registry) *SparsityMetrics {
	return &SparsityMetrics{
		attn: r.GaugeVec("lexp_sparse_serving_attn_density",
			"Live serving attention block density planned per decode step (fraction of KV blocks read), by layer.", "layer"),
		mlp: r.GaugeVec("lexp_sparse_serving_mlp_density",
			"Live serving MLP neuron-block density planned per decode step (fraction of blocks computed), by layer.", "layer"),
	}
}

// layerGauge returns the cached handle for a layer, resolving and
// publishing a grown snapshot on first use.
func (m *SparsityMetrics) layerGauge(cache *atomic.Pointer[[]*Gauge], vec *GaugeVec, layer int) *Gauge {
	if layer < 0 {
		return vec.With(strconv.Itoa(layer)) // degenerate; never hot
	}
	if gs := cache.Load(); gs != nil && layer < len(*gs) {
		return (*gs)[layer]
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var cur []*Gauge
	if gs := cache.Load(); gs != nil {
		cur = *gs
	}
	if layer < len(cur) { // another goroutine grew it meanwhile
		return cur[layer]
	}
	grown := make([]*Gauge, layer+1)
	copy(grown, cur)
	for i := len(cur); i <= layer; i++ {
		grown[i] = vec.With(strconv.Itoa(i))
	}
	cache.Store(&grown)
	return grown[layer]
}

// SetAttn records one layer's mean attention density. Like every
// instrument update it is a no-op on a nil receiver — planners hold a nil
// *SparsityMetrics when nobody is watching.
func (m *SparsityMetrics) SetAttn(layer int, density float64) {
	if m == nil {
		return
	}
	m.layerGauge(&m.attnG, m.attn, layer).Set(density)
}

// SetMLP records one layer's MLP block density.
func (m *SparsityMetrics) SetMLP(layer int, density float64) {
	if m == nil {
		return
	}
	m.layerGauge(&m.mlpG, m.mlp, layer).Set(density)
}

// SLOMetrics instruments the SLO engine (internal/slo): the evaluation
// loop, per-objective burn rates and error budgets, and the alert state
// machine. Per-objective handles are resolved once at engine
// construction (ObjectiveSLOMetrics), keeping the evaluation tick
// allocation-free.
type SLOMetrics struct {
	Evaluations  *Counter // lexp_slo_evaluations_total
	AlertsFiring *Gauge   // lexp_slo_alerts_firing

	budget      *GaugeVec   // lexp_slo_error_budget_remaining{objective}
	burn        *GaugeVec   // lexp_slo_burn_rate{objective,window}
	state       *GaugeVec   // lexp_slo_alert_state{objective}
	transitions *CounterVec // lexp_slo_alert_transitions_total{objective,state}
}

// NewSLOMetrics registers the SLO instruments.
func NewSLOMetrics(r *Registry) *SLOMetrics {
	return &SLOMetrics{
		Evaluations:  r.Counter("lexp_slo_evaluations_total", "SLO engine evaluation ticks."),
		AlertsFiring: r.Gauge("lexp_slo_alerts_firing", "Objectives currently in the firing state."),
		budget: r.GaugeVec("lexp_slo_error_budget_remaining",
			"Fraction of the error budget left over the budget window (1 = untouched, <= 0 = exhausted).", "objective"),
		burn: r.GaugeVec("lexp_slo_burn_rate",
			"Error-budget burn rate per evaluation window (1 = burning exactly the budget).", "objective", "window"),
		state: r.GaugeVec("lexp_slo_alert_state",
			"Alert state machine position per objective (0 inactive, 1 pending, 2 firing, 3 resolved).", "objective"),
		transitions: r.CounterVec("lexp_slo_alert_transitions_total",
			"Alert state transitions, by objective and entered state.", "objective", "state"),
	}
}

// ObjectiveSLOMetrics is SLOMetrics resolved for one objective: every
// handle pre-fetched so the evaluation tick stays allocation-free.
type ObjectiveSLOMetrics struct {
	BudgetRemaining *Gauge
	State           *Gauge

	BurnFastShort, BurnFastLong *Gauge
	BurnSlowShort, BurnSlowLong *Gauge

	ToPending, ToFiring, ToResolved *Counter
}

// Objective resolves the per-objective handles.
func (m *SLOMetrics) Objective(name string) *ObjectiveSLOMetrics {
	return &ObjectiveSLOMetrics{
		BudgetRemaining: m.budget.With(name),
		State:           m.state.With(name),
		BurnFastShort:   m.burn.With(name, "fast_short"),
		BurnFastLong:    m.burn.With(name, "fast_long"),
		BurnSlowShort:   m.burn.With(name, "slow_short"),
		BurnSlowLong:    m.burn.With(name, "slow_long"),
		ToPending:       m.transitions.With(name, "pending"),
		ToFiring:        m.transitions.With(name, "firing"),
		ToResolved:      m.transitions.With(name, "resolved"),
	}
}

// AccountMetrics instruments the wide-event accounting plane
// (internal/account): one emission per completed generate request,
// fine-tune job and train run, with the resource vector folded into
// global counters. Every handle is resolved at construction — emission
// happens on the sequence-retire path and must stay allocation-free.
type AccountMetrics struct {
	events *CounterVec // lexp_account_events_total{kind}
	saved  *CounterVec // lexp_flops_saved_total{layer_kind}

	EvGenerate, EvFinetune, EvExperiment, EvTrain *Counter

	PromptTokens *Counter // lexp_account_prompt_tokens_total
	OutputTokens *Counter // lexp_account_output_tokens_total
	DenseFLOPs   *Counter // lexp_account_flops_dense_total
	ExecFLOPs    *Counter // lexp_account_flops_executed_total
	SavedMLP     *Counter // lexp_flops_saved_total{layer_kind="mlp"}
	SavedAttn    *Counter // lexp_flops_saved_total{layer_kind="attn"}
	Shed         *Counter // lexp_account_shed_total
	LogBytes     *Counter // lexp_account_log_bytes_total
	LogErrors    *Counter // lexp_account_log_errors_total
	Segments     *Counter // lexp_account_segments_total
}

// NewAccountMetrics registers the accounting instruments.
func NewAccountMetrics(r *Registry) *AccountMetrics {
	m := &AccountMetrics{
		events: r.CounterVec("lexp_account_events_total",
			"Wide events emitted into the accounting plane, by event kind.", "kind"),
		saved: r.CounterVec("lexp_flops_saved_total",
			"FLOPs saved by predictor-gated contextual sparsity vs the dense-equivalent run, by gated layer kind.", "layer_kind"),
		PromptTokens: r.Counter("lexp_account_prompt_tokens_total", "Prompt tokens across accounted requests."),
		OutputTokens: r.Counter("lexp_account_output_tokens_total", "Output tokens across accounted requests."),
		DenseFLOPs:   r.Counter("lexp_account_flops_dense_total", "Dense-equivalent FLOPs across accounted work."),
		ExecFLOPs:    r.Counter("lexp_account_flops_executed_total", "FLOPs actually executed across accounted work."),
		Shed:         r.Counter("lexp_account_shed_total", "Accounted requests shed before admission."),
		LogBytes:     r.Counter("lexp_account_log_bytes_total", "Bytes appended to the segmented event log."),
		LogErrors:    r.Counter("lexp_account_log_errors_total", "Event-log write or rotation failures (events stay in the ring)."),
		Segments:     r.Counter("lexp_account_segments_total", "Event-log segments sealed by rotation."),
	}
	m.EvGenerate = m.events.With("generate")
	m.EvFinetune = m.events.With("finetune")
	m.EvExperiment = m.events.With("experiment")
	m.EvTrain = m.events.With("train")
	m.SavedMLP = m.saved.With("mlp")
	m.SavedAttn = m.saved.With("attn")
	return m
}

// Event returns the cached emission counter for an event kind.
func (m *AccountMetrics) Event(kind string) *Counter {
	switch kind {
	case "generate":
		return m.EvGenerate
	case "finetune":
		return m.EvFinetune
	case "experiment":
		return m.EvExperiment
	default:
		return m.EvTrain
	}
}

// LimitMetrics instruments internal/limit: every admission and shed
// decision, in-flight and waiting levels, and wait latency, per guarded
// endpoint. Tenants tracks the rate limiter's live tenant-bucket count.
type LimitMetrics struct {
	admitted    *CounterVec
	shed        *CounterVec
	inflight    *GaugeVec
	waiting     *GaugeVec
	waitSeconds *HistogramVec

	Tenants *Gauge // lexp_limit_tenants
}

// NewLimitMetrics registers the traffic-control instruments.
func NewLimitMetrics(r *Registry) *LimitMetrics {
	return &LimitMetrics{
		admitted: r.CounterVec("lexp_limit_admitted_total",
			"Requests admitted by the admission controller.", "endpoint"),
		shed: r.CounterVec("lexp_limit_shed_total",
			"Requests shed, by endpoint and reason.", "endpoint", "reason"),
		inflight: r.GaugeVec("lexp_limit_inflight",
			"Admitted requests currently in flight.", "endpoint"),
		waiting: r.GaugeVec("lexp_limit_waiting",
			"Requests parked in the bounded admission wait queue.", "endpoint"),
		waitSeconds: r.HistogramVec("lexp_limit_wait_seconds",
			"Admission wait-queue latency for admitted requests.", DurationBuckets, "endpoint"),
		Tenants: r.Gauge("lexp_limit_tenants", "Live tenant token buckets."),
	}
}

// EndpointLimitMetrics is LimitMetrics resolved for one endpoint: every
// handle pre-fetched so admission decisions stay allocation-free.
type EndpointLimitMetrics struct {
	Admitted *Counter

	ShedRateLimited *Counter
	ShedQueueFull   *Counter
	ShedDraining    *Counter
	ShedTimeout     *Counter
	ShedCancelled   *Counter

	InFlight    *Gauge
	Waiting     *Gauge
	WaitSeconds *Histogram
}

// Endpoint resolves the per-endpoint handles.
func (m *LimitMetrics) Endpoint(endpoint string) *EndpointLimitMetrics {
	return &EndpointLimitMetrics{
		Admitted:        m.admitted.With(endpoint),
		ShedRateLimited: m.shed.With(endpoint, "rate_limited"),
		ShedQueueFull:   m.shed.With(endpoint, "queue_full"),
		ShedDraining:    m.shed.With(endpoint, "draining"),
		ShedTimeout:     m.shed.With(endpoint, "timeout"),
		ShedCancelled:   m.shed.With(endpoint, "cancelled"),
		InFlight:        m.inflight.With(endpoint),
		Waiting:         m.waiting.With(endpoint),
		WaitSeconds:     m.waitSeconds.With(endpoint),
	}
}
