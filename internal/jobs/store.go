package jobs

import (
	"container/heap"
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"longexposure/internal/account"
	"longexposure/internal/events"
	"longexposure/internal/obs"
	"longexposure/internal/registry"
	"longexposure/internal/trace"
)

// Config sizes a Store.
type Config struct {
	// Workers bounds concurrent job execution (default 2).
	Workers int
	// CacheSize bounds the result cache in entries (default 64).
	CacheSize int
	// MaxJobs bounds retained jobs: when exceeded, the oldest terminal
	// jobs (with their event logs) are evicted so a long-running daemon's
	// memory stays bounded. Queued and running jobs are never evicted.
	// Default 1024.
	MaxJobs int
	// Registry, when set, receives every completed fine-tuning job's
	// trainable delta as a published adapter artifact (the job result
	// carries the adapter id). Nil disables auto-publish.
	Registry *registry.Store
	// EventBacklog bounds each subscriber's buffered backlog: a consumer
	// that falls further behind loses its oldest pending events (replaced
	// by a single EventLost marker) instead of growing memory without
	// limit. Terminal events are never dropped. Default 256.
	EventBacklog int
	// Obs, when set, instruments the store: queue depth, wait/run
	// latency, completions, cache hits, event traffic, plus the training
	// and sparsity instruments threaded into every fine-tuning engine
	// the workers build. Nil disables metering (no-op handles).
	Obs *obs.Registry
	// Tracer, when set, gives every sampled job a span timeline
	// (submit → queue → run → publish), parented on the submitting
	// request's span when SubmitCtx carries one. Nil disables tracing.
	Tracer *trace.Tracer
	// Account, when set, receives one wide event per terminal job
	// (finetune or experiment) carrying the tenant, trace id, outcome and
	// the run's resource vector. Nil disables accounting.
	Account *account.Plane
	// Logger, when set, receives structured lifecycle records (queued,
	// started, terminal) tagged with the job id and trace id. Nil
	// disables lifecycle logging.
	Logger *slog.Logger
}

// Store owns every job: the pending priority queue, the bounded worker
// pool that drains it, the per-job event logs and subscribers, and the
// result cache. All methods are safe for concurrent use.
type Store struct {
	mu   sync.Mutex
	cond *sync.Cond // wakes workers when the queue grows or the store closes

	jobs    map[string]*Job
	order   []string // submission order, for List
	pending jobHeap
	cache   *resultCache

	topics    map[string]*events.Topic[Event] // per-job event log + live subscribers
	eventOpts events.Options[Event]           // every job stream's backlog policy

	baseCtx    context.Context
	baseCancel context.CancelFunc
	registry   *registry.Store // nil: auto-publish disabled
	workers    int
	maxJobs    int
	nextSeq    int64
	closed     bool
	wg         sync.WaitGroup

	// Observability (no-op handles when Config.Obs is unset).
	metrics  *obs.JobsMetrics
	train    *obs.TrainMetrics
	sparsity *obs.SparsityMetrics

	tracer  *trace.Tracer  // nil: untraced
	log     *slog.Logger   // nil: unlogged
	account *account.Plane // nil: unaccounted
}

// NewStore builds a store and starts its worker pool.
func NewStore(cfg Config) *Store {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 1024
	}
	if cfg.EventBacklog <= 0 {
		cfg.EventBacklog = 256
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Store{
		jobs:       make(map[string]*Job),
		cache:      newResultCache(cfg.CacheSize),
		topics:     make(map[string]*events.Topic[Event]),
		baseCtx:    ctx,
		baseCancel: cancel,
		registry:   cfg.Registry,
		workers:    cfg.Workers,
		maxJobs:    cfg.MaxJobs,
		tracer:     cfg.Tracer,
		log:        cfg.Logger,
		account:    cfg.Account,
		metrics:    obs.NewJobsMetrics(cfg.Obs),
		train:      obs.NewTrainMetrics(cfg.Obs),
		sparsity:   obs.NewSparsityMetrics(cfg.Obs),
	}
	// Terminal job events end a stream and are never dropped, slow-consumer
	// gaps surface as a single EventLost marker, and every drop is metered.
	s.eventOpts = events.Options[Event]{
		Backlog:  cfg.EventBacklog,
		Terminal: func(e Event) bool { return e.Kind.Terminal() },
		Lost: func(lost int, first, next Event) Event {
			return Event{
				JobID: first.JobID,
				Kind:  EventLost,
				Seq:   first.Seq,
				Time:  time.Now(),
				Lost:  lost,
				Message: fmt.Sprintf("%d events dropped (slow consumer); next delivered seq is %d",
					lost, next.Seq),
			}
		},
		OnDrop: s.metrics.EventsDropped.Inc,
	}
	s.cond = sync.NewCond(&s.mu)
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Workers reports the pool size.
func (s *Store) Workers() int { return s.workers }

// ErrClosed rejects submissions to a draining store.
var ErrClosed = fmt.Errorf("jobs: store is shutting down")

// Submit validates and enqueues a job, returning its snapshot. When the
// spec's hash is already in the result cache the job completes instantly
// with the cached result and CacheHit set, never touching the queue.
func (s *Store) Submit(spec Spec) (Job, error) {
	return s.SubmitCtx(context.Background(), spec)
}

// SubmitCtx is Submit carrying the submitting request's context: when it
// holds a sampled span, the job's span tree is parented on it, linking the
// HTTP submission to the whole asynchronous job lifecycle under one trace
// id. Without one, the store's tracer head-samples a fresh root. The
// context is used only for trace propagation — job cancellation remains
// tied to the store, not the (short-lived) submitting request.
func (s *Store) SubmitCtx(ctx context.Context, spec Spec) (Job, error) {
	if err := spec.Validate(); err != nil {
		return Job{}, err
	}
	spec = spec.Normalized()
	hash := spec.Hash()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Job{}, ErrClosed
	}
	s.nextSeq++
	j := &Job{
		ID:      fmt.Sprintf("job-%06d", s.nextSeq),
		Hash:    hash,
		Spec:    spec,
		Tenant:  spec.Tenant,
		Created: time.Now(),
		seq:     s.nextSeq,
	}
	j.ctx, j.cancel = context.WithCancel(s.baseCtx)
	if parent := trace.FromContext(ctx); parent != nil {
		j.span = parent.StartChild("jobs.job")
	} else {
		j.span = s.tracer.StartRoot("jobs.job", trace.SpanContext{})
	}
	j.span.SetStr("job", j.ID)
	j.span.SetStr("kind", string(spec.Kind))
	if j.span.Sampled() {
		j.TraceID = j.span.TraceID().String()
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.evictLocked()

	s.metrics.Submitted.Inc()
	if res, ok := s.cache.get(hash); ok && s.resultServable(res) {
		j.Status = StatusDone
		j.CacheHit = true
		now := time.Now()
		j.Started, j.Finished = now, now
		j.Result = res
		j.cancel()
		s.metrics.CacheHits.Inc()
		s.publishLocked(j.ID, Event{Kind: EventQueued})
		s.publishLocked(j.ID, Event{Kind: EventDone, Message: "cache hit", Result: res})
		j.span.SetBool("cache_hit", true)
		j.span.SetStr("status", string(StatusDone))
		j.span.Finish()
		s.logJob(j, "job served from cache")
		s.emitAccountLocked(j)
		return *j, nil
	}

	j.Status = StatusQueued
	heap.Push(&s.pending, j)
	s.metrics.QueueDepth.Inc()
	s.publishLocked(j.ID, Event{Kind: EventQueued})
	s.logJob(j, "job queued")
	s.cond.Signal()
	return *j, nil
}

// logJob emits one structured lifecycle record for the job. The trace id
// attribute carries the same id /debug/traces and exemplars report, so a
// log line, a span tree and a latency exemplar all join on it.
func (s *Store) logJob(j *Job, msg string) {
	if s.log == nil {
		return
	}
	s.log.Info(msg,
		"job", j.ID,
		"kind", string(j.Spec.Kind),
		"status", string(j.Status),
		"trace_id", j.TraceID)
}

// emitAccountLocked publishes one wide accounting event for a terminal
// job: the worker-filled accumulator (steps, tokens, FLOPs, compute time)
// merged with the job's identity, outcome and scheduling times. Callers
// hold s.mu; a nil plane swallows the event.
func (s *Store) emitAccountLocked(j *Job) {
	var ev account.Event
	if j.acct != nil {
		ev = j.acct.Event
	}
	ev.Time = j.Finished
	ev.Kind = account.KindFinetune
	if j.Spec.Kind == KindExperiment {
		ev.Kind = account.KindExperiment
	}
	ev.Tenant = j.Tenant
	if ev.Tenant == "" {
		ev.Tenant = "anonymous"
	}
	ev.Route = "/v1/jobs"
	ev.TraceID = j.TraceID
	ev.Outcome = string(j.Status)
	if j.CacheHit {
		ev.Limit = "cache_hit"
	}
	if r := j.Result; r != nil && r.Finetune != nil {
		ev.Adapter = r.Finetune.AdapterID
		ev.Base = r.Finetune.Model
	}
	switch {
	case !j.Started.IsZero():
		ev.QueueWaitNs = j.Started.Sub(j.Created).Nanoseconds()
	case !j.Finished.IsZero():
		// Cancelled while queued: the whole lifetime was queue wait.
		ev.QueueWaitNs = j.Finished.Sub(j.Created).Nanoseconds()
	}
	if ev.TotalNs == 0 && !j.Finished.IsZero() && !j.Started.IsZero() {
		ev.TotalNs = j.Finished.Sub(j.Started).Nanoseconds()
	}
	s.account.Emit(&ev)
}

// resultServable guards cache hits against dangling artifacts: a cached
// fine-tune result naming an adapter that has since been deleted from the
// registry must not be served — the job re-runs and (content addressing)
// republishes the same id.
func (s *Store) resultServable(res *Result) bool {
	if s.registry == nil || res.Finetune == nil || res.Finetune.AdapterID == "" {
		return true
	}
	_, ok := s.registry.Get(res.Finetune.AdapterID)
	return ok
}

// Get returns a snapshot of one job.
func (s *Store) Get(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// List returns snapshots of every job in submission order, optionally
// filtered by status ("" matches all).
func (s *Store) List(status Status) []Job {
	jobs, _ := s.ListPage(status, "", 0, 0)
	return jobs
}

// ListPage is List with pagination: it skips offset matching jobs and
// returns at most limit of them (limit <= 0 means no bound), plus the
// total number of matches. Jobs are matched by status ("" matches all)
// and by submitting tenant ("" matches all). Ordering is stable —
// submission order — so clients can walk a growing list page by page
// without duplicates. Only jobs inside the window are copied, keeping
// listing cheap at high job counts.
func (s *Store) ListPage(status Status, tenant string, limit, offset int) ([]Job, int) {
	if offset < 0 {
		offset = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := []Job{}
	total := 0
	for _, id := range s.order {
		j := s.jobs[id]
		if status != "" && j.Status != status {
			continue
		}
		if tenant != "" && j.Tenant != tenant {
			continue
		}
		total++
		if total > offset && (limit <= 0 || len(out) < limit) {
			out = append(out, *j)
		}
	}
	return out, total
}

// Cancel requests cancellation. A queued job transitions to cancelled
// immediately; a running job's context is cancelled and the worker
// finalizes it; a terminal job is left untouched (reported via the
// returned snapshot). Unknown ids return ok=false.
func (s *Store) Cancel(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	j.cancel()
	if j.Status == StatusQueued {
		// The heap entry is removed lazily: workers skip non-queued jobs.
		j.Status = StatusCancelled
		j.Finished = time.Now()
		s.metrics.QueueDepth.Dec()
		s.metrics.Cancelled.Inc()
		s.publishLocked(id, Event{Kind: EventCancelled, Message: "cancelled while queued"})
		j.span.SetStr("status", string(StatusCancelled))
		j.span.Finish()
		s.logJob(j, "job cancelled while queued")
		s.emitAccountLocked(j)
	}
	return *j, true
}

// evictLocked drops the oldest terminal jobs (and their event logs) while
// more than maxJobs are retained. Queued/running jobs are kept regardless;
// results already promoted to the cache survive eviction. Callers hold
// s.mu.
func (s *Store) evictLocked() {
	if len(s.jobs) <= s.maxJobs {
		return
	}
	kept := s.order[:0]
	for i, id := range s.order {
		j := s.jobs[id]
		if len(s.jobs) > s.maxJobs && j.Status.Terminal() {
			delete(s.jobs, id)
			delete(s.topics, id)
			continue
		}
		if len(s.jobs) <= s.maxJobs {
			kept = append(kept, s.order[i:]...)
			break
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// Stats summarizes the store for health endpoints.
type Stats struct {
	Workers   int `json:"workers"`
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
	Cached    int `json:"cached"`
}

// Stats counts jobs by status.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Workers: s.workers, Cached: s.cache.len()}
	for _, j := range s.jobs {
		switch j.Status {
		case StatusQueued:
			st.Queued++
		case StatusRunning:
			st.Running++
		case StatusDone:
			st.Done++
		case StatusFailed:
			st.Failed++
		case StatusCancelled:
			st.Cancelled++
		}
	}
	return st
}

// Shutdown stops accepting submissions and drains the pool: queued and
// running jobs keep executing until the queue is empty or ctx expires, at
// which point every outstanding job is cancelled and the workers are
// awaited. Safe to call once.
func (s *Store) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()

	select {
	case <-drained:
		s.baseCancel()
		return nil
	case <-ctx.Done():
		// Hard stop: cancel everything still outstanding, then wait for
		// the workers to observe it.
		s.baseCancel()
		<-drained
		return ctx.Err()
	}
}

// ---- events ----

// Subscribe returns a channel replaying the job's full event history and
// then streaming live events. The channel closes after the terminal event
// (delivered exactly once per subscriber). The returned cancel func
// releases the subscription early; it is safe to call more than once.
func (s *Store) Subscribe(id string) (<-chan Event, func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[id]; !ok {
		return nil, nil, fmt.Errorf("jobs: unknown job %q", id)
	}
	ch, cancel := s.topics[id].Subscribe() // the topic exists since the queued event
	return ch, cancel, nil
}

// Events returns a snapshot of the job's event log so far.
func (s *Store) Events(id string) []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.topics[id]; t != nil {
		return t.History()
	}
	return nil
}

// publishLocked appends an event to the job's topic — the log every
// subscriber replays — and fans it out to live subscribers. A terminal
// event closes the topic: later subscribers replay and end. Callers hold
// s.mu.
func (s *Store) publishLocked(id string, e Event) {
	t := s.topics[id]
	if t == nil {
		t = events.NewTopic(0, s.eventOpts)
		s.topics[id] = t
	}
	e.JobID, e.Seq, e.Time = id, t.Len(), time.Now()
	t.Publish(e)
	s.metrics.Events.Inc()
	if e.Kind.Terminal() {
		t.Close()
	}
}

// publish is publishLocked for callers not holding the lock.
func (s *Store) publish(id string, e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.publishLocked(id, e)
}

// ---- priority queue ----

// jobHeap orders pending jobs by (priority desc, submission seq asc):
// higher priorities first, FIFO within a level.
type jobHeap []*Job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].Spec.Priority != h[j].Spec.Priority {
		return h[i].Spec.Priority > h[j].Spec.Priority
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*Job)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}
