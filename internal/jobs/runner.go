package jobs

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"time"

	"longexposure/internal/account"
	"longexposure/internal/core"
	"longexposure/internal/data"
	"longexposure/internal/experiments"
	"longexposure/internal/nn"
	"longexposure/internal/peft"
	"longexposure/internal/predictor"
	"longexposure/internal/registry"
	"longexposure/internal/trace"
	"longexposure/internal/train"
)

// worker is one pool goroutine: pop the highest-priority queued job, run
// it, finalize, repeat. Workers exit once the store is closed and the
// queue is drained (graceful shutdown).
func (s *Store) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.pending) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.pending) == 0 && s.closed {
			s.mu.Unlock()
			return
		}
		j := heap.Pop(&s.pending).(*Job)
		if j.Status != StatusQueued {
			// Cancelled while queued; already finalized.
			s.mu.Unlock()
			continue
		}
		j.Status = StatusRunning
		j.Started = time.Now()
		if j.Spec.Kind == KindFinetune {
			// Armed under the lock: snapshots copy the Job concurrently.
			j.acct = &account.TrainAccumulator{}
		}
		s.metrics.QueueDepth.Dec()
		s.metrics.Running.Inc()
		s.metrics.WaitSeconds.Observe(j.Started.Sub(j.Created).Seconds())
		s.publishLocked(j.ID, Event{Kind: EventStarted})
		s.mu.Unlock()

		j.span.ChildAt("jobs.queue", j.Created, j.Started)
		s.logJob(j, "job started")
		run := j.span.StartChildAt("jobs.run", j.Started)
		res, err := s.execute(j, run)
		run.Finish()
		s.finish(j, res, err)
	}
}

// execute dispatches on the job kind. The spec was validated at submit,
// but a panic anywhere in the training stack must fail the one job, not
// take down the daemon's worker pool. run is the job's "jobs.run" span
// (nil when unsampled) under which execution-phase children are recorded.
func (s *Store) execute(j *Job, run *trace.Span) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("jobs: job panicked: %v", r)
		}
	}()
	switch j.Spec.Kind {
	case KindFinetune:
		return s.runFinetune(j, run)
	case KindExperiment:
		return s.runExperiment(j)
	default:
		return nil, fmt.Errorf("jobs: unknown kind %q", j.Spec.Kind)
	}
}

// finish moves a running job to its terminal state, publishes the terminal
// event exactly once, and populates the result cache on success.
func (s *Store) finish(j *Job, res *Result, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.Status != StatusRunning {
		// Only the owning worker transitions out of running; anything else
		// here is a logic error worth surfacing loudly in tests.
		return
	}
	j.Finished = time.Now()
	s.metrics.Running.Dec()
	s.metrics.RunSeconds.Observe(j.Finished.Sub(j.Started).Seconds())
	switch {
	case err == nil:
		j.Status = StatusDone
		j.Result = res
		s.cache.put(j.Hash, res)
		s.metrics.Done.Inc()
		s.publishLocked(j.ID, Event{Kind: EventDone, Result: res})
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.Status = StatusCancelled
		s.metrics.Cancelled.Inc()
		s.publishLocked(j.ID, Event{Kind: EventCancelled, Message: "cancelled while running"})
	default:
		j.Status = StatusFailed
		j.Error = err.Error()
		s.metrics.Failed.Inc()
		s.publishLocked(j.ID, Event{Kind: EventFailed, Error: err.Error()})
	}
	j.cancel()
	j.span.SetStr("status", string(j.Status))
	if j.Error != "" {
		j.span.SetBool("error", true)
	}
	j.span.Finish()
	s.logJob(j, "job finished")
	s.emitAccountLocked(j)
}

// runFinetune assembles a Long Exposure session (or dense baseline) from
// the spec and trains it step by step, emitting a progress event per step
// through the engine's StepHook.
func (s *Store) runFinetune(j *Job, run *trace.Span) (*Result, error) {
	// Job setup (model build, predictor pretraining) is the bulk of a
	// short job and has no internal cancellation points, so check the
	// context before each uncancellable stage — this is what keeps
	// hard-stopped shutdowns from paying full setup for every queued job.
	if err := j.ctx.Err(); err != nil {
		return nil, err
	}
	f := j.Spec.Finetune // normalized at submit
	cfg, err := f.CoreConfig()
	if err != nil {
		return nil, err
	}

	corpus := data.NewE2ECorpus(cfg.Spec.Config.Vocab, max(2, f.Seq/6), f.Seed)
	examples := corpus.Generate(f.Steps*f.Batch, f.Seed+1)
	batches := data.Batches(examples, f.Batch, f.Seq)
	if len(batches) == 0 {
		return nil, fmt.Errorf("jobs: finetune spec yields no batches (steps=%d batch=%d)", f.Steps, f.Batch)
	}

	var eng *train.Engine
	var recall predictor.TrainStats
	if *f.Sparse {
		sys := core.New(cfg)
		if err := j.ctx.Err(); err != nil {
			return nil, err
		}
		calib := [][][]int{batches[0].Inputs}
		if len(batches) > 1 {
			calib = append(calib, batches[1].Inputs)
		}
		tPre := time.Now()
		recall = sys.PretrainPredictors(calib, predictor.TrainConfig{Epochs: f.PredictorEpochs, Seed: f.Seed})
		run.ChildAt("jobs.pretrain_predictors", tPre, time.Now())
		s.publish(j.ID, Event{
			Kind:    EventProgress,
			Message: fmt.Sprintf("predictors trained: attention recall %.2f, MLP recall %.2f", recall.AttnRecall, recall.MLPRecall),
		})
		// Sparse jobs report per-layer predicted density.
		sys.Planner.Metrics = s.sparsity
		eng = sys.Engine()
	} else {
		eng = core.NewBaseline(cfg)
	}
	if err := j.ctx.Err(); err != nil {
		return nil, err
	}
	// Thread the store's training instruments into this job's engine:
	// every fine-tuning step the daemon runs lands in the same
	// lexp_train_* series.
	eng.Metrics = s.train
	eng.Span = run
	// The wide-event accumulator: the engine records steps, tokens and
	// analytic FLOPs into it at zero allocations; finish() merges it with
	// the job identity and emits. Partial work on a failed or cancelled run
	// is still accounted.
	j.acct.Event.Base = cfg.Spec.Config.Name
	eng.Acct = j.acct

	hook := func(si train.StepInfo) {
		s.publish(j.ID, Event{
			Kind: EventProgress,
			Progress: &StepProgress{
				Epoch:      si.Epoch,
				Step:       si.Step,
				GlobalStep: si.GlobalStep,
				TotalSteps: si.TotalSteps,
				Loss:       si.Loss,
				Times:      si.Times,
			},
		})
	}
	res, err := eng.RunContext(j.ctx, batches, f.Epochs, hook)
	j.acct.Event.ArenaBytes = eng.Workspace().AllocBytes()
	if err != nil {
		return nil, err
	}

	out := &FinetuneResult{
		Model:      cfg.Spec.Config.Name,
		Steps:      res.Steps,
		FinalLoss:  res.FinalLoss(),
		MeanStep:   res.MeanStepTime(),
		AttnRecall: recall.AttnRecall,
		MLPRecall:  recall.MLPRecall,
	}
	if len(res.Losses) > 0 {
		out.FirstLoss = res.Losses[0]
	}
	if s.registry != nil {
		tPub := time.Now()
		man, err := s.publishAdapter(j, f, eng.Model)
		run.ChildAt("jobs.publish", tPub, time.Now())
		if err != nil {
			// Training succeeded but its output is unreachable — that is a
			// failed job, not a quietly adapter-less success.
			return nil, fmt.Errorf("jobs: publishing adapter: %w", err)
		}
		out.AdapterID = man.ID
		s.publish(j.ID, Event{Kind: EventProgress, Message: "adapter published: " + man.ID})
	}
	return &Result{Finetune: out}, nil
}

// publishAdapter extracts the trained delta and stores it as a registry
// artifact keyed to the exact base the job built. Content addressing makes
// this idempotent: re-running identical work republished the same id (and
// a result served from the cache carries the same id without re-running).
func (s *Store) publishAdapter(j *Job, f *FinetuneSpec, m *nn.Transformer) (registry.Manifest, error) {
	desc, err := f.baseDesc()
	if err != nil {
		return registry.Manifest{}, err
	}
	opts := peft.Options{}.Resolved(m.Cfg.Dim) // jobs always run default PEFT options
	return s.registry.Publish(registry.Spec{
		Name:         j.ID,
		Method:       f.Method,
		Base:         desc,
		Rank:         opts.LoRARank,
		Alpha:        opts.LoRAAlpha,
		PromptTokens: opts.PromptTokens,
		Bottleneck:   opts.Bottleneck,
	}, peft.Delta(m))
}

// runExperiment executes one registry driver. Drivers run as a unit (they
// have no internal cancellation points), so the job goroutine races the
// driver against the job context: cancellation finalizes the job
// immediately and the abandoned driver's result is discarded when it
// eventually returns.
func (s *Store) runExperiment(j *Job) (*Result, error) {
	// Don't even spawn the driver for a job cancelled while queued.
	if err := j.ctx.Err(); err != nil {
		return nil, err
	}
	e := j.Spec.Experiment // normalized at submit
	opts := experiments.Options{Quick: *e.Quick, Seed: e.Seed}

	type outcome struct {
		rep *experiments.Report
		err error
	}
	done := make(chan outcome, 1) // buffered: an abandoned driver must not leak forever
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- outcome{nil, fmt.Errorf("jobs: experiment %q panicked: %v", e.ID, r)}
			}
		}()
		rep, err := experiments.Run(e.ID, opts)
		done <- outcome{rep, err}
	}()

	select {
	case <-j.ctx.Done():
		return nil, j.ctx.Err()
	case o := <-done:
		if o.err != nil {
			return nil, o.err
		}
		return &Result{Experiment: &ExperimentResult{
			ID:       o.rep.ID,
			Title:    o.rep.Title,
			Markdown: o.rep.Markdown(),
		}}, nil
	}
}
