// Package account is the wide-event resource-accounting plane: exactly
// one structured record per completed generate request, fine-tune job and
// train run, carrying identity (tenant, route, adapter, trace id), the
// outcome, and the full resource vector — tokens, decode steps,
// dense-equivalent vs executed FLOPs and the savings attributed to
// predictor-gated sparsity, peak KV footprint, arena traffic, queue wait
// and phase durations. Events join the other observability planes by
// trace id: the span tree at /debug/traces, the SLO verdict and the
// admission decision are all stamped into the same record.
//
// Events are assembled incrementally on the hot path at zero allocations
// (preallocated per-sequence accumulators in infer and train own the
// struct; recording is plain field arithmetic) and emitted once at
// retire/completion into an in-memory ring plus an optional append-only
// segmented binary log on disk (crash-tolerant replay, atomic segment
// rotation, size/age retention). GET /debug/events and GET /v1/usage in
// internal/serve are the query surfaces.
package account

import (
	"slices"
	"time"
)

// Event kinds.
const (
	KindGenerate   = "generate"
	KindFinetune   = "finetune"
	KindExperiment = "experiment"
	KindTrain      = "train"
)

// Event is one wide record: everything the system knows about one
// completed unit of work. String fields are small and interned by the
// caller; the struct is copied by value into the ring on emit.
type Event struct {
	Time    time.Time `json:"time"`
	Kind    string    `json:"kind"` // generate | finetune | experiment | train
	Tenant  string    `json:"tenant"`
	Route   string    `json:"route,omitempty"`
	Adapter string    `json:"adapter,omitempty"`
	Base    string    `json:"base,omitempty"`
	TraceID string    `json:"trace_id,omitempty"`

	// Outcome is the unit's terminal state: a finish reason for generates
	// (stop, length, max_seq, cancelled, error), a job status for jobs
	// (done, failed, cancelled), "shed" for requests refused at admission.
	Outcome string `json:"outcome"`
	// Limit is the admission controller's verdict: "admitted", or the
	// shed reason (rate_limited, queue_full, timeout, draining,
	// cancelled). Empty when no limiter guards the route.
	Limit string `json:"limit,omitempty"`
	// SLO is the SLO engine's readiness verdict at emit time: empty while
	// healthy, the firing status (e.g. "slo_firing") otherwise.
	SLO string `json:"slo,omitempty"`

	PromptTokens int64 `json:"prompt_tokens,omitempty"`
	OutputTokens int64 `json:"output_tokens,omitempty"`
	DecodeSteps  int64 `json:"decode_steps,omitempty"`
	PlannedSteps int64 `json:"planned_steps,omitempty"` // steps under a sparsity plan
	TrainSteps   int64 `json:"train_steps,omitempty"`   // fine-tuning steps (job/train events)

	DenseFLOPs     int64 `json:"dense_flops,omitempty"`
	ExecFLOPs      int64 `json:"exec_flops,omitempty"`
	MLPSavedFLOPs  int64 `json:"mlp_saved_flops,omitempty"`
	AttnSavedFLOPs int64 `json:"attn_saved_flops,omitempty"`

	PeakKVRows  int64 `json:"peak_kv_rows,omitempty"`
	PeakKVBytes int64 `json:"peak_kv_bytes,omitempty"`
	// ArenaBytes is the workspace arena's footprint: the training engine's
	// for jobs, the serving engine's one shared step arena for generates.
	ArenaBytes int64 `json:"arena_bytes,omitempty"`

	// A generate's PrefillNs/DecodeNs sum its shared steps' wall time.
	QueueWaitNs int64 `json:"queue_wait_ns,omitempty"`
	PrefillNs   int64 `json:"prefill_ns,omitempty"`
	DecodeNs    int64 `json:"decode_ns,omitempty"`
	TotalNs     int64 `json:"total_ns,omitempty"`
}

// SavedFLOPs is the total sparsity saving across layer kinds.
func (e *Event) SavedFLOPs() int64 { return e.MLPSavedFLOPs + e.AttnSavedFLOPs }

// Shed reports whether the event records a request refused at admission.
func (e *Event) Shed() bool { return e.Outcome == "shed" }

// Usage is a cumulative per-tenant (or global) rollup — the billing/load
// signal GET /v1/usage serves. Conservation invariant: summing any field
// across tenants equals the matching global lexp_account_* counter.
type Usage struct {
	Requests     int64 `json:"requests"`
	Shed         int64 `json:"shed"`
	PromptTokens int64 `json:"prompt_tokens"`
	OutputTokens int64 `json:"output_tokens"`
	DenseFLOPs   int64 `json:"dense_flops"`
	ExecFLOPs    int64 `json:"exec_flops"`
	SavedFLOPs   int64 `json:"saved_flops"`
}

func (u *Usage) add(e *Event) {
	u.Requests++
	if e.Shed() {
		u.Shed++
	}
	u.PromptTokens += e.PromptTokens
	u.OutputTokens += e.OutputTokens
	u.DenseFLOPs += e.DenseFLOPs
	u.ExecFLOPs += e.ExecFLOPs
	u.SavedFLOPs += e.SavedFLOPs()
}

// Aggregate is the ?agg=sum rollup over a filtered event set.
type Aggregate struct {
	Events       int64 `json:"events"`
	Shed         int64 `json:"shed"`
	PromptTokens int64 `json:"prompt_tokens"`
	OutputTokens int64 `json:"output_tokens"`
	DecodeSteps  int64 `json:"decode_steps"`
	DenseFLOPs   int64 `json:"dense_flops"`
	ExecFLOPs    int64 `json:"exec_flops"`
	SavedFLOPs   int64 `json:"saved_flops"`
	PeakKVBytes  int64 `json:"peak_kv_bytes"` // max across events
	TotalNs      int64 `json:"total_ns"`
}

// Sum folds a filtered event set into totals.
func Sum(events []Event) Aggregate {
	var a Aggregate
	for i := range events {
		e := &events[i]
		a.Events++
		if e.Shed() {
			a.Shed++
		}
		a.PromptTokens += e.PromptTokens
		a.OutputTokens += e.OutputTokens
		a.DecodeSteps += e.DecodeSteps
		a.DenseFLOPs += e.DenseFLOPs
		a.ExecFLOPs += e.ExecFLOPs
		a.SavedFLOPs += e.SavedFLOPs()
		if e.PeakKVBytes > a.PeakKVBytes {
			a.PeakKVBytes = e.PeakKVBytes
		}
		a.TotalNs += e.TotalNs
	}
	return a
}

// Quantiles is a ?agg=pNN rollup: the q-th percentile of the per-event
// distributions that matter operationally.
type Quantiles struct {
	Q            float64 `json:"q"`
	Events       int64   `json:"events"`
	TotalNs      int64   `json:"total_ns"`
	QueueWaitNs  int64   `json:"queue_wait_ns"`
	OutputTokens int64   `json:"output_tokens"`
	ExecFLOPs    int64   `json:"exec_flops"`
}

// Percentile computes the q-th (0 < q <= 1) percentile rollup using the
// nearest-rank method over the filtered event set.
func Percentile(events []Event, q float64) Quantiles {
	out := Quantiles{Q: q, Events: int64(len(events))}
	if len(events) == 0 {
		return out
	}
	rank := int(q*float64(len(events)) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > len(events) {
		rank = len(events)
	}
	out.TotalNs = nthInt64(events, rank, func(e *Event) int64 { return e.TotalNs })
	out.QueueWaitNs = nthInt64(events, rank, func(e *Event) int64 { return e.QueueWaitNs })
	out.OutputTokens = nthInt64(events, rank, func(e *Event) int64 { return e.OutputTokens })
	out.ExecFLOPs = nthInt64(events, rank, func(e *Event) int64 { return e.ExecFLOPs })
	return out
}

// nthInt64 returns the rank-th smallest value of field over events.
func nthInt64(events []Event, rank int, field func(*Event) int64) int64 {
	vals := make([]int64, len(events))
	for i := range events {
		vals[i] = field(&events[i])
	}
	slices.Sort(vals)
	return vals[rank-1]
}
