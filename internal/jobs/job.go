package jobs

import (
	"context"
	"time"

	"longexposure/internal/account"
	"longexposure/internal/trace"
	"longexposure/internal/train"
)

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// FinetuneResult summarizes a completed fine-tuning job.
type FinetuneResult struct {
	Model     string           `json:"model"`
	Steps     int              `json:"steps"`
	FirstLoss float64          `json:"first_loss"`
	FinalLoss float64          `json:"final_loss"`
	MeanStep  train.PhaseTimes `json:"mean_step"` // per-phase ns, averaged per step
	// AttnRecall/MLPRecall report predictor quality (sparse jobs only).
	AttnRecall float64 `json:"attn_recall,omitempty"`
	MLPRecall  float64 `json:"mlp_recall,omitempty"`
	// AdapterID names the registry artifact the job's trainable delta was
	// published as (set when the store runs with a registry attached).
	AdapterID string `json:"adapter_id,omitempty"`
}

// ExperimentResult carries a regenerated paper artifact.
type ExperimentResult struct {
	ID       string `json:"id"`
	Title    string `json:"title"`
	Markdown string `json:"markdown"`
}

// Result is the terminal output of a successful job; exactly one field is
// set, matching the job kind. Results are immutable once published (they
// are shared with the cache and with API snapshots).
type Result struct {
	Finetune   *FinetuneResult   `json:"finetune,omitempty"`
	Experiment *ExperimentResult `json:"experiment,omitempty"`
}

// Job is one managed workload. The exported fields are the API surface;
// snapshots handed out by the store are value copies, safe to marshal
// without holding store locks.
type Job struct {
	ID   string `json:"id"`
	Hash string `json:"hash"`
	Spec Spec   `json:"spec"`
	// Tenant is the submitting principal captured at admission; it drives
	// the ?tenant= list filter and the job's accounting event.
	Tenant string `json:"tenant,omitempty"`

	Status Status `json:"status"`
	// CacheHit marks a job served from the result cache without running.
	CacheHit bool   `json:"cache_hit,omitempty"`
	Error    string `json:"error,omitempty"`

	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`

	Result *Result `json:"result,omitempty"`

	// TraceID links a sampled job to its span tree at /debug/traces and
	// to its structured log records. Empty when the job was unsampled.
	TraceID string `json:"trace_id,omitempty"`

	// Scheduling internals (not marshalled).
	seq    int64 // submission order, FIFO tiebreak within a priority
	ctx    context.Context
	cancel context.CancelFunc
	// span covers the job's whole lifetime; nil when unsampled (every
	// use is a nil-safe no-op).
	span *trace.Span
	// acct accumulates the job's wide-event resource vector while it
	// runs (nil until the worker arms it; nil for experiments and cache
	// hits). Only the owning worker writes through it.
	acct *account.TrainAccumulator
}

// EventKind tags a job event.
type EventKind string

const (
	EventQueued    EventKind = "queued"
	EventStarted   EventKind = "started"
	EventProgress  EventKind = "progress"
	EventDone      EventKind = "done"
	EventFailed    EventKind = "failed"
	EventCancelled EventKind = "cancelled"
	// EventLost is synthesized per subscriber when a slow consumer's
	// bounded backlog overflowed: Lost counts the dropped events and Seq
	// is the sequence number of the first one. It never appears in the
	// stored event log — only on streams that fell behind.
	EventLost EventKind = "lost"
)

// Terminal reports whether the event ends the job's stream. Every job
// emits exactly one terminal event.
func (k EventKind) Terminal() bool {
	return k == EventDone || k == EventFailed || k == EventCancelled
}

// StepProgress is the payload of a progress event: one fine-tuning step's
// loss and phase times (train.StepInfo, serialized).
type StepProgress struct {
	Epoch      int     `json:"epoch"`
	Step       int     `json:"step"`
	GlobalStep int     `json:"global_step"`
	TotalSteps int     `json:"total_steps"`
	Loss       float64 `json:"loss"`
	// Times carries the step's per-phase wall clock in nanoseconds
	// (Forward/Backward/Optim/Predict).
	Times train.PhaseTimes `json:"times"`
}

// Event is one item on a job's event stream.
type Event struct {
	Seq     int       `json:"seq"` // per-job, dense from 0
	JobID   string    `json:"job_id"`
	Kind    EventKind `json:"kind"`
	Time    time.Time `json:"time"`
	Message string    `json:"message,omitempty"`

	Progress *StepProgress `json:"progress,omitempty"`
	Result   *Result       `json:"result,omitempty"` // on done events
	Error    string        `json:"error,omitempty"`  // on failed events
	// Lost counts events dropped before this one (EventLost markers only).
	Lost int `json:"lost,omitempty"`
}
