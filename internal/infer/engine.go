package infer

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"longexposure/internal/account"
	"longexposure/internal/nn"
	"longexposure/internal/obs"
	"longexposure/internal/tensor"
	"longexposure/internal/trace"
)

// PlannerProvider hands out per-sequence contextual-sparsity planners.
// internal/predictor's ServingPlanner is the implementation; the interface
// lives here so the engine never imports the predictor machinery. A
// provider must be safe for concurrent NewSequencePlanner calls and must
// return (nil, nil) when the options request no sparsity.
type PlannerProvider interface {
	NewSequencePlanner(opts nn.SparsityOptions) (nn.DecodePlanner, error)
}

// Config sizes an Engine.
type Config struct {
	// MaxBatch bounds sequences decoded per scheduler step (default 4).
	MaxBatch int
	// Queue bounds submitted-but-unadmitted sequences (default 64).
	Queue int
	// Metrics, when set, receives scheduler observability: batch
	// occupancy, tokens/sec, KV-cache residency, queue depth, admissions
	// and retirements. All updates are atomic handle writes on the
	// scheduler goroutine — the per-token decode path stays zero-alloc.
	// Nil means a bundle of no-op handles.
	Metrics *obs.InferMetrics
	// Planner, when set, enables contextual sparsity: requests carrying
	// sparsity options get a per-sequence planner and decode under
	// per-step plans. Nil (or a request with mode off) decodes dense.
	Planner PlannerProvider
	// Account, when set, emits one wide event per retired sequence into
	// the accounting plane: tokens, FLOPs (dense-equivalent, executed,
	// saved by sparsity), peak KV footprint, queue wait and phase
	// durations. Accumulation rides the preallocated sequence struct —
	// the per-token decode path stays zero-alloc.
	Account *account.Plane
}

// ErrClosed rejects submissions to a closed engine.
var ErrClosed = errors.New("infer: engine closed")

// Engine decodes generation requests on one shared frozen base with
// continuous batching: a scheduler loop admits queued sequences up to
// MaxBatch, runs one stacked decode step over every active sequence on the
// scheduler goroutine, retires finished ones, and immediately backfills
// from the queue — a new request never waits for the longest running
// sequence to drain. The rows of all active sequences pass through the
// shared base together in one nn.DecodeBatch call; each sequence's KV
// cache, adapter, plan and RNG stay its own. The base is read-only here.
type Engine struct {
	base *nn.Transformer
	cfg  Config

	// The step arena (plans included, released once per step) and segment
	// list every scheduler step reuses. Scheduler-goroutine only.
	ws   *tensor.Arena
	segs []nn.DecodeSeq

	submit    chan *sequence
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	// closeMu orders submissions against Close: a Generate holding the
	// read lock past the isClosed check completes its enqueue before Close
	// (write lock) proceeds to drain the queue, so no stream is orphaned.
	closeMu  sync.RWMutex
	isClosed bool

	// Last values this engine contributed to the shared level gauges.
	// Metrics bundles are shared across engines (the gateway builds one
	// engine per base), so levels are reported as deltas — each engine
	// adds its own change and the gauge aggregates correctly — instead of
	// Set calls that would clobber the other engines' contributions.
	// Scheduler-goroutine only.
	prevActive, prevQueue, prevKV int
}

// New starts an engine over the base model.
func New(base *nn.Transformer, cfg Config) *Engine {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 4
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 64
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewInferMetrics(nil)
	}
	e := &Engine{
		base:   base,
		cfg:    cfg,
		ws:     tensor.NewArena(),
		submit: make(chan *sequence, cfg.Queue),
		closed: make(chan struct{}),
	}
	e.wg.Add(1)
	go e.run()
	return e
}

// Base returns the engine's shared model (read-only by contract).
func (e *Engine) Base() *nn.Transformer { return e.base }

// Close stops the scheduler. Queued and in-flight sequences are terminated
// with an "engine closed" error event.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		e.closeMu.Lock()
		e.isClosed = true
		e.closeMu.Unlock()
		close(e.closed)
	})
	e.wg.Wait()
}

// Request describes one generation.
type Request struct {
	Prompt      []int
	MaxTokens   int     // default 16
	Temperature float64 // 0 = greedy
	StopToken   int     // stop after emitting this token; <= 0 disables
	Seed        uint64  // sampling seed (default 1)

	// Adapter is the compiled PEFT delta to decode with; nil serves the
	// plain base. Concurrent requests may carry different adapters.
	Adapter *nn.DecodeAdapter
	// AdapterID tags events for observability (not interpreted here).
	AdapterID string

	// Tenant, Route and LimitVerdict stamp the request's wide event when
	// the engine carries an accounting plane (not interpreted here).
	// Tenant defaults to "anonymous"; LimitVerdict is the admission
	// controller's decision ("admitted"), empty when no limiter guards
	// the route.
	Tenant       string
	Route        string
	LimitVerdict string

	// Sparsity requests contextual sparsity for this sequence. The zero
	// value (mode off) decodes dense; "auto"/"forced" require the engine
	// to carry a Config.Planner. Concurrent sequences may carry different
	// options — plans are strictly per sequence.
	Sparsity nn.SparsityOptions
}

// Event is one item on a generation stream: a token, or the terminal
// marker carrying the finish reason ("stop", "length", "max_seq",
// "cancelled", or an error).
type Event struct {
	Token  int    `json:"token,omitempty"`
	Index  int    `json:"index"`
	Done   bool   `json:"done,omitempty"`
	Reason string `json:"reason,omitempty"`
	Err    error  `json:"-"`
}

// Stream delivers a generation's events. The channel is buffered for the
// whole generation, so a slow consumer never stalls the scheduler, and is
// closed after the terminal event.
type Stream struct {
	Events <-chan Event
}

// Collect drains the stream into the emitted tokens plus the finish
// reason — the non-streaming consumption mode.
func (s *Stream) Collect() (tokens []int, reason string, err error) {
	for ev := range s.Events {
		if ev.Err != nil {
			return tokens, ev.Reason, ev.Err
		}
		if ev.Done {
			return tokens, ev.Reason, nil
		}
		tokens = append(tokens, ev.Token)
	}
	return tokens, "", fmt.Errorf("infer: stream ended without terminal event")
}

type sequence struct {
	ctx     context.Context
	prompt  []int
	ad      *nn.DecodeAdapter
	pRows   int // adapter prompt rows
	maxTok  int
	temp    float64
	stop    int
	rng     *tensor.RNG
	cache   *nn.KVCache
	planner nn.DecodePlanner // nil: dense sequence
	out     chan Event
	emitted int
	started bool
	nextBuf [1]int

	queued   time.Time // when Generate enqueued the sequence
	admitted time.Time // when the scheduler first saw the sequence

	// span covers the sequence's whole lifetime (enqueue through terminal
	// event); stepSpan is the current step's child, open from prepare to
	// emit. nil when the request is unsampled — every use below is a
	// nil-safe no-op.
	span, stepSpan *trace.Span

	// Accounting accumulator: stats is written by the step (plain field
	// arithmetic via DecodeSeq.Stats — the hot path stays zero-alloc), ev
	// is assembled at Generate time and completed at retirement.
	stats               nn.DecodeStats
	ev                  account.Event
	prefillNs, decodeNs int64

	done   bool
	reason string
	err    error
}

// Generate validates and enqueues a request. The returned stream starts
// delivering as soon as the scheduler admits the sequence. ctx cancels a
// queued or running sequence.
func (e *Engine) Generate(ctx context.Context, req Request) (*Stream, error) {
	if len(req.Prompt) == 0 {
		return nil, fmt.Errorf("infer: empty prompt")
	}
	for _, tok := range req.Prompt {
		if tok < 0 || tok >= e.base.Cfg.Vocab {
			return nil, fmt.Errorf("infer: prompt token %d outside vocab %d", tok, e.base.Cfg.Vocab)
		}
	}
	if req.MaxTokens <= 0 {
		req.MaxTokens = 16
	}
	// MaxSeq already bounds how many tokens any sequence can emit, and
	// MaxTokens sizes the stream buffer below — clamp it so a hostile
	// request cannot turn the buffer allocation into memory exhaustion.
	if req.MaxTokens > e.base.Cfg.MaxSeq {
		req.MaxTokens = e.base.Cfg.MaxSeq
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	pRows := req.Adapter.PromptLen()
	if pRows+len(req.Prompt) >= e.base.Cfg.MaxSeq {
		return nil, fmt.Errorf("infer: prompt of %d tokens (+%d prompt-tuning rows) leaves no room under MaxSeq %d",
			len(req.Prompt), pRows, e.base.Cfg.MaxSeq)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var planner nn.DecodePlanner
	if req.Sparsity.Enabled() {
		if e.cfg.Planner == nil {
			return nil, fmt.Errorf("infer: sparsity mode %q requested but the engine has no planner", req.Sparsity.Mode)
		}
		var err error
		planner, err = e.cfg.Planner.NewSequencePlanner(req.Sparsity)
		if err != nil {
			return nil, fmt.Errorf("infer: %w", err)
		}
	} else if err := req.Sparsity.Validate("sparsity"); err != nil {
		return nil, fmt.Errorf("infer: %w", err)
	}

	s := &sequence{
		ctx:     ctx,
		prompt:  append([]int(nil), req.Prompt...),
		ad:      req.Adapter,
		pRows:   pRows,
		maxTok:  req.MaxTokens,
		temp:    req.Temperature,
		stop:    req.StopToken,
		rng:     tensor.NewRNG(req.Seed),
		cache:   e.base.NewKVCache(),
		planner: planner,
		// One slot per possible token plus the terminal event: sends from
		// the scheduler can never block on a lagging consumer.
		out: make(chan Event, req.MaxTokens+1),
	}
	s.queued = time.Now()
	if planner != nil {
		planner.BeginSequence(s.prompt, req.Adapter)
	}
	s.span = trace.FromContext(ctx).StartChild("infer.sequence")
	s.span.SetStr("adapter", req.AdapterID)
	s.span.SetInt("prompt_tokens", int64(len(req.Prompt)))
	if req.Sparsity.Enabled() {
		s.span.SetStr("sparsity", req.Sparsity.Mode)
	}
	// The wide event's identity is fixed here, off the hot path; the
	// resource vector fills in at retirement from s.stats.
	tenant := req.Tenant
	if tenant == "" {
		tenant = "anonymous"
	}
	s.ev = account.Event{
		Kind:         account.KindGenerate,
		Tenant:       tenant,
		Route:        req.Route,
		Adapter:      req.AdapterID,
		Base:         e.base.Cfg.Name,
		Limit:        req.LimitVerdict,
		PromptTokens: int64(len(req.Prompt)),
	}
	if tid := s.span.TraceID(); tid.Valid() {
		s.ev.TraceID = tid.String()
	}
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	if e.isClosed {
		return nil, ErrClosed
	}
	select {
	case e.submit <- s:
		return &Stream{Events: s.out}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// run is the continuous-batching scheduler loop.
func (e *Engine) run() {
	defer e.wg.Done()
	m := e.cfg.Metrics
	var active []*sequence
	for {
		// Block for work when idle; otherwise top up without blocking.
		if len(active) == 0 {
			select {
			case s := <-e.submit:
				active = append(active, e.admit(s))
			case <-e.closed:
				e.failAll(active)
				return
			}
		}
		for len(active) < e.cfg.MaxBatch {
			select {
			case s := <-e.submit:
				active = append(active, e.admit(s))
			default:
				goto step
			}
		}
	step:
		m.SchedulerSteps.Inc()
		m.BatchOccupancy.Observe(float64(len(active)))
		e.setLevels(len(active), len(e.submit), e.prevKV)

		m.Tokens.Add(float64(e.step(active)))

		kvRows := 0
		keep := active[:0]
		for _, s := range active {
			if s.done {
				s.finish()
				e.account(s)
				m.Retired(s.reason).Inc()
				m.SeqSeconds.Observe(time.Since(s.admitted).Seconds())
				continue
			}
			kvRows += s.cache.Len
			keep = append(keep, s)
		}
		active = keep
		e.setLevels(len(active), e.prevQueue, kvRows)

		select {
		case <-e.closed:
			e.failAll(active)
			return
		default:
		}
		// The step never blocked, so the stream consumers it woke have not
		// run: yield, so tokens go out now rather than at a preemption.
		runtime.Gosched()
	}
}

// account completes and emits the sequence's wide event — identity from
// Generate, resource vector from the step accumulator. Without a plane
// the emit is a no-op.
func (e *Engine) account(s *sequence) {
	end := time.Now()
	ev := &s.ev
	ev.Time = end
	ev.Outcome = s.reason
	ev.OutputTokens = int64(s.emitted)
	ev.DecodeSteps = s.stats.Steps
	ev.PlannedSteps = s.stats.PlannedSteps
	ev.DenseFLOPs = s.stats.DenseFLOPs
	ev.ExecFLOPs = s.stats.ExecFLOPs
	ev.MLPSavedFLOPs = s.stats.MLPSavedFLOPs
	ev.AttnSavedFLOPs = s.stats.AttnSavedFLOPs
	ev.PeakKVRows = s.stats.PeakKVRows
	ev.PeakKVBytes = s.stats.PeakKVRows * e.base.KVRowBytes()
	ev.ArenaBytes = e.ws.AllocBytes()
	if !s.admitted.IsZero() {
		ev.QueueWaitNs = s.admitted.Sub(s.queued).Nanoseconds()
	} else {
		// Never admitted (engine closed while queued): the whole lifetime
		// was queue wait.
		ev.QueueWaitNs = end.Sub(s.queued).Nanoseconds()
	}
	ev.PrefillNs = s.prefillNs
	ev.DecodeNs = s.decodeNs
	ev.TotalNs = end.Sub(s.queued).Nanoseconds()
	e.cfg.Account.Emit(ev)
}

// admit stamps and meters a sequence entering the decode batch.
func (e *Engine) admit(s *sequence) *sequence {
	s.admitted = time.Now()
	s.span.ChildAt("infer.queue", s.queued, s.admitted)
	e.cfg.Metrics.Admitted.Inc()
	return s
}

// setLevels moves this engine's contribution to the shared level gauges
// to the given values (delta reporting; see the prev* fields).
func (e *Engine) setLevels(active, queue, kv int) {
	m := e.cfg.Metrics
	if active != e.prevActive {
		m.Active.Add(float64(active - e.prevActive))
		e.prevActive = active
	}
	if queue != e.prevQueue {
		m.QueueDepth.Add(float64(queue - e.prevQueue))
		e.prevQueue = queue
	}
	if kv != e.prevKV {
		m.KVRows.Add(float64(kv - e.prevKV))
		e.prevKV = kv
	}
}

// failAll terminates every active and queued sequence on engine close.
func (e *Engine) failAll(active []*sequence) {
	m := e.cfg.Metrics
	for _, s := range active {
		s.err, s.reason = ErrClosed, "error"
		s.finish()
		e.account(s)
		// Only admitted sequences retire: retired_total must never exceed
		// admitted_total.
		m.Retired(s.reason).Inc()
	}
	e.setLevels(0, 0, 0) // withdraw this engine's gauge contributions
	for {
		select {
		case s := <-e.submit:
			// Never admitted — failed without counting as retired.
			s.err, s.reason = ErrClosed, "error"
			s.finish()
			e.account(s)
		default:
			return
		}
	}
}

// step runs one stacked decode step on the scheduler goroutine and returns
// the tokens it emitted: every running sequence adds its segment to one
// DecodeBatch call, then samples, emits and checks stops on its own logits
// row. A panic anywhere in the step fails every sequence still in it with
// reason "error": their caches are in an unknown state.
func (e *Engine) step(active []*sequence) (emitted int) {
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("infer: decode panicked: %v", r)
			for _, s := range active {
				if !s.done {
					s.done, s.reason, s.err = true, "error", err
					s.stepSpan.Finish()
				}
			}
		}
		e.ws.Release()
	}()
	t0 := time.Now()
	e.segs = e.segs[:0]
	planned, mlpD, attnD := 0, 0.0, 0.0
	for _, s := range active {
		seg, ok := s.prepare(e.base, e.ws)
		if !ok {
			continue
		}
		e.segs = append(e.segs, seg)
		if seg.Plan != nil {
			planned++
			mlpD += seg.Plan.MLPDensity
			attnD += seg.Plan.AttnDensity
		}
	}
	if m := e.cfg.Metrics; planned > 0 {
		m.SparseSteps.Add(float64(planned))
		m.PlanMLPDensity.Set(mlpD / float64(planned))
		m.PlanAttnDensity.Set(attnD / float64(planned))
	}
	if len(e.segs) == 0 {
		return 0
	}
	logits := e.base.DecodeBatch(e.segs, e.ws)
	d := time.Since(t0).Nanoseconds()
	for _, s := range active {
		if !s.done {
			s.emit(logits.Row(emitted), d, len(e.segs))
			emitted++
		}
	}
	return emitted
}

// prepare is the pre-step: it finishes a cancelled sequence or one at
// MaxSeq, and otherwise opens the step span, plans the step in the shared
// arena, and returns the sequence's segment of the batch — the whole
// prompt on the first step, then the last emitted token.
func (s *sequence) prepare(base *nn.Transformer, ws *tensor.Arena) (nn.DecodeSeq, bool) {
	if s.ctx.Err() != nil {
		s.done, s.reason = true, "cancelled"
		return nn.DecodeSeq{}, false
	}
	if s.pRows+len(s.prompt)+s.emitted >= base.Cfg.MaxSeq {
		s.done, s.reason = true, "max_seq"
		return nn.DecodeSeq{}, false
	}
	seg := nn.DecodeSeq{Cache: s.cache, Adapter: s.ad, Stats: &s.stats}
	if !s.started {
		// Prefill always runs dense: the planner's position summaries are
		// built from these very rows, and prefill is one step regardless.
		s.stepSpan = s.span.StartChild("infer.prefill")
		seg.IDs = s.prompt
		return seg, true
	}
	s.stepSpan = s.span.StartChild("infer.decode_step")
	s.stepSpan.SetInt("step", int64(s.emitted))
	if s.planner != nil {
		seg.Plan = s.planner.PlanStep(s.nextBuf[0], s.cache.Len, ws)
	}
	if seg.Plan != nil {
		s.stepSpan.SetBool("sparse", true)
	}
	seg.IDs = s.nextBuf[:]
	return seg, true
}

// emit is the post-step: it samples the sequence's logits row with its own
// RNG, charges the step's wall time d to its phase, streams the token and
// checks stops — mirroring nn.Generate, so served tokens are bit-identical
// to the naive path. batch, the step's sequence count, tags the span.
func (s *sequence) emit(logits []float32, d int64, batch int) {
	tok := nn.SampleToken(logits, s.temp, s.rng)
	s.stepSpan.SetInt("batch", int64(batch))
	s.stepSpan.Finish()
	s.stepSpan = nil
	if s.started {
		s.decodeNs += d
	} else {
		s.prefillNs += d
		s.started = true
	}
	s.nextBuf[0] = tok

	s.out <- Event{Token: tok, Index: s.emitted} // buffered for the full run
	s.emitted++

	switch {
	case s.stop > 0 && tok == s.stop:
		s.done, s.reason = true, "stop"
	case s.emitted >= s.maxTok:
		s.done, s.reason = true, "length"
	}
}

// finish emits the terminal event, closes the stream, and retires the
// sequence span with its outcome.
func (s *sequence) finish() {
	s.out <- Event{Done: true, Index: s.emitted, Reason: s.reason, Err: s.err}
	close(s.out)
	s.span.SetInt("tokens", int64(s.emitted))
	s.span.SetStr("reason", s.reason)
	if s.err != nil {
		s.span.SetBool("error", true)
	}
	s.span.Finish()
}
