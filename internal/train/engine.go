// Package train implements the fine-tuning engine: forward / backward /
// optimizer-step phases with separate wall-clock accounting (the
// measurement behind Table I and Figure 10), dense and Long-Exposure
// execution paths, and task evaluation.
package train

import (
	"context"
	"fmt"
	"math"
	"time"

	"longexposure/internal/account"
	"longexposure/internal/data"
	"longexposure/internal/nn"
	"longexposure/internal/obs"
	"longexposure/internal/peft"
	"longexposure/internal/tensor"
	"longexposure/internal/trace"
)

// PhaseTimes records one step's wall-clock per fine-tuning phase. Predict is
// the predictor overhead, separated out of Forward (Figure 10's fourth bar).
type PhaseTimes struct {
	Forward, Backward, Optim, Predict time.Duration
}

// Total sums the phases.
func (p PhaseTimes) Total() time.Duration {
	return p.Forward + p.Backward + p.Optim + p.Predict
}

// Add accumulates another step's times.
func (p PhaseTimes) Add(q PhaseTimes) PhaseTimes {
	return PhaseTimes{
		Forward:  p.Forward + q.Forward,
		Backward: p.Backward + q.Backward,
		Optim:    p.Optim + q.Optim,
		Predict:  p.Predict + q.Predict,
	}
}

// Scale divides all phases by n (for averaging).
func (p PhaseTimes) Scale(n int) PhaseTimes {
	if n == 0 {
		return p
	}
	return PhaseTimes{
		Forward:  p.Forward / time.Duration(n),
		Backward: p.Backward / time.Duration(n),
		Optim:    p.Optim / time.Duration(n),
		Predict:  p.Predict / time.Duration(n),
	}
}

// Engine drives fine-tuning of one model replica.
//
// Memory model: the engine owns one workspace arena per replica. Every
// step Gets its step-lived buffers (activations, gradients-in-flight,
// saved-for-backward state) from that arena and Releases them after the
// optimizer update, so steady-state training performs near-zero heap
// allocation. Every forward and backward requires an arena; stepping on a
// fresh arena per step — newly made, zeroed buffers — is the bit-identity
// oracle for the reused one (workspace_test.go).
type Engine struct {
	Model *nn.Transformer
	Opt   peft.Optimizer
	// Planner selects sparse execution; nil runs the dense baseline. A
	// planner with a TakeElapsed method (predictor.RuntimePlanner) has its
	// prediction time reported as the Predict phase.
	Planner nn.Planner
	// ClipNorm, when positive, applies global gradient-norm clipping.
	ClipNorm float64
	// Metrics, when set, receives per-step observability: step and phase
	// latency, tokens, loss, and workspace-arena traffic. Updates are
	// atomic handle writes — the instrumented step stays at zero
	// steady-state allocations (pinned by TestSteadyStepZeroAllocs).
	Metrics *obs.TrainMetrics
	// Span, when set, parents a "train.step" span per Step with
	// forward/predict/backward/optim phase children. nil (or an unsampled
	// run) costs one branch — the traced-but-unsampled step stays
	// zero-alloc (pinned by TestSteadyStepZeroAllocs).
	Span *trace.Span
	// Acct, when set, accumulates the run's wide-event resource vector
	// (steps, tokens, analytic FLOPs, wall-clock) for the accounting
	// plane. The owner stamps identity fields and emits at completion;
	// per-step recording is plain field arithmetic — zero allocations.
	Acct *account.TrainAccumulator

	ws *tensor.Arena
	// stepSeq counts Steps for the span's step attribute.
	stepSeq int64
	// lastArenaGets/lastArenaMisses remember the arena's cumulative
	// counters at the previous instrumented step, so Metrics receives
	// per-step deltas.
	lastArenaGets, lastArenaMisses int64
	// params caches Model.Params() — rebuilding the set every step
	// allocates. The cache is invalidated when Model is swapped; changing
	// the parameter *structure* of the current model (e.g. injecting LoRA
	// after the first Step) is not supported mid-training.
	params      nn.ParamSet
	paramsModel *nn.Transformer
}

// Workspace returns the engine's step arena, creating it on first use.
func (e *Engine) Workspace() *tensor.Arena {
	if e.ws == nil {
		e.ws = tensor.NewArena()
	}
	return e.ws
}

// Step runs one fine-tuning step on a batch and returns the loss and the
// per-phase times.
func (e *Engine) Step(b data.Batch) (float64, PhaseTimes) {
	return e.step(b, e.Workspace())
}

// step is Step on an explicit workspace.
func (e *Engine) step(b data.Batch, ws *tensor.Arena) (float64, PhaseTimes) {
	var times PhaseTimes

	t0 := time.Now()
	logits := e.Model.Forward(b.Inputs, e.Planner, ws)
	flat := e.Model.FlattenTargetsIn(ws, b.Targets)
	loss, dLogits := nn.CrossEntropyIn(ws, logits, flat)
	times.Forward = time.Since(t0)
	timed, predicts := e.Planner.(interface{ TakeElapsed() time.Duration })
	if predicts {
		times.Predict = timed.TakeElapsed()
		times.Forward -= times.Predict
	}

	t1 := time.Now()
	if e.params == nil || e.paramsModel != e.Model {
		e.params = e.Model.Params()
		e.paramsModel = e.Model
	}
	params := e.params
	params.ZeroGrads()
	e.Model.Backward(dLogits, ws)
	times.Backward = time.Since(t1)

	t2 := time.Now()
	if e.ClipNorm > 0 {
		peft.ClipGradNorm(params, e.ClipNorm)
	}
	e.Opt.Step(params)
	times.Optim = time.Since(t2)

	// The step is fully applied; recycle every step-lived buffer.
	ws.Release()

	if parent := e.Span; parent != nil {
		sp := parent.StartChildAt("train.step", t0)
		sp.SetInt("step", e.stepSeq)
		sp.SetFloat("loss", loss)
		sp.ChildAt("train.forward", t0, t0.Add(times.Forward))
		if predicts {
			sp.ChildAt("train.predict", t0.Add(times.Forward), t1)
		}
		sp.ChildAt("train.backward", t1, t1.Add(times.Backward))
		sp.ChildAt("train.optim", t2, t2.Add(times.Optim))
		sp.Finish()
	}
	e.stepSeq++

	if a := e.Acct; a != nil {
		tokens, seqLen := 0, 0
		for _, row := range b.Inputs {
			tokens += len(row)
			if len(row) > seqLen {
				seqLen = len(row)
			}
		}
		a.AddStep(tokens, e.Model.TrainStepFLOPs(len(b.Inputs), seqLen), times.Total())
	}

	if m := e.Metrics; m != nil {
		tokens := 0
		for _, row := range b.Inputs {
			tokens += len(row)
		}
		m.Steps.Inc()
		m.Tokens.Add(float64(tokens))
		m.StepSeconds.Observe(times.Total().Seconds())
		m.Loss.Set(loss)
		m.PhaseForward.Add(times.Forward.Seconds())
		m.PhaseBackward.Add(times.Backward.Seconds())
		m.PhaseOptim.Add(times.Optim.Seconds())
		m.PhasePredict.Add(times.Predict.Seconds())
		gets, misses := ws.Gets(), ws.Misses()
		m.ArenaGets.Add(float64(gets - e.lastArenaGets))
		m.ArenaMisses.Add(float64(misses - e.lastArenaMisses))
		e.lastArenaGets, e.lastArenaMisses = gets, misses
	}
	return loss, times
}

// StepInfo describes one completed fine-tuning step, delivered to a
// StepHook. GlobalStep counts steps across epochs (0-based); TotalSteps is
// the number of steps the whole run will execute.
type StepInfo struct {
	Epoch      int
	Step       int // index within the epoch
	GlobalStep int
	TotalSteps int
	Loss       float64
	Times      PhaseTimes
}

// StepHook observes training progress. Hooks run synchronously on the
// training goroutine after each step; keep them cheap (hand off to a
// channel for slow consumers).
type StepHook func(StepInfo)

// Result summarizes a training run.
type Result struct {
	Losses []float64 // per-step losses
	Times  PhaseTimes
	Steps  int
}

// MeanStepTime returns the average per-step phase times.
func (r Result) MeanStepTime() PhaseTimes { return r.Times.Scale(r.Steps) }

// FinalLoss returns the mean of the last few losses (smoothing).
func (r Result) FinalLoss() float64 {
	n := len(r.Losses)
	if n == 0 {
		return 0
	}
	k := min(5, n)
	var s float64
	for _, l := range r.Losses[n-k:] {
		s += l
	}
	return s / float64(k)
}

// Run fine-tunes over the batches for the given number of epochs.
func (e *Engine) Run(batches []data.Batch, epochs int) Result {
	res, _ := e.RunContext(context.Background(), batches, epochs, nil)
	return res
}

// RunContext fine-tunes over the batches for the given number of epochs,
// checking ctx between steps and invoking hook (if non-nil) after each
// step. On cancellation it returns the partial Result together with
// ctx.Err(); long-running jobs use this to stay cancellable and to report
// per-step progress.
func (e *Engine) RunContext(ctx context.Context, batches []data.Batch, epochs int, hook StepHook) (Result, error) {
	var res Result
	total := epochs * len(batches)
	for ep := 0; ep < epochs; ep++ {
		for bi, b := range batches {
			if err := ctx.Err(); err != nil {
				return res, err
			}
			loss, times := e.Step(b)
			res.Losses = append(res.Losses, loss)
			res.Times = res.Times.Add(times)
			res.Steps++
			if hook != nil {
				hook(StepInfo{
					Epoch:      ep,
					Step:       bi,
					GlobalStep: res.Steps - 1,
					TotalSteps: total,
					Loss:       loss,
					Times:      times,
				})
			}
		}
	}
	return res, nil
}

// EvaluateTask measures restricted-choice accuracy on classification
// examples: the prediction is the argmax over the example's candidate
// answer tokens at its answer position.
func EvaluateTask(m *nn.Transformer, examples []data.Example, seqLen int, planner nn.Planner) float64 {
	correct, total := 0, 0
	ws := tensor.NewArena() // per-example workspace, recycled across examples
	for _, e := range examples {
		// The logit row is offset by the prompt length of prompted
		// (P-Tuning) models, so bound-check the row itself — and reject
		// AnswerPos < 0 (LM examples), which the old AnswerPos >= seqLen
		// guard let through: it indexed a negative row on prompt-free
		// models and silently scored argmax-over-nothing as "correct".
		// Checking before Forward also skips the wasted pass.
		pos := m.PromptLen + e.AnswerPos
		if e.AnswerPos < 0 || pos >= m.PromptLen+seqLen {
			continue
		}
		p := data.PadTo(e, seqLen)
		logits := m.Forward([][]int{p.Input}, planner, ws)
		best, bestV := -1, float32(tensor.NegInf)
		for ci, tok := range e.Choices {
			v := logits.At(pos, tok)
			if v > bestV {
				best, bestV = ci, v
			}
		}
		ws.Release()
		if best == e.Label {
			correct++
		}
		total++
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// StderrOfAccuracy returns the binomial standard error of an accuracy
// estimate over n examples — the ± columns of Table IV.
func StderrOfAccuracy(acc float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return math.Sqrt(acc * (1 - acc) / float64(n))
}

// CloneModel deep-copies a transformer's weights into a structurally
// identical fresh model (same PEFT modules must be re-applied by the
// caller before cloning trainable state is meaningful; in practice clones
// are made after peft.Apply, which this helper supports by copying every
// parameter by position).
func CloneModel(src *nn.Transformer, rng *tensor.RNG) *nn.Transformer {
	dst := nn.NewTransformer(src.Cfg, rng)
	// Recreate structural extensions.
	for i, b := range src.Blocks {
		if b.Attn.Wq.HasLoRA() {
			dst.Blocks[i].Attn.Wq.AddLoRA(fmt.Sprintf("layer%d.attn.q_proj", i), b.Attn.Wq.LoRAA.W.Dim(1), 1, rng)
			dst.Blocks[i].Attn.Wq.LoRAScale = b.Attn.Wq.LoRAScale
		}
		if b.Attn.Wv.HasLoRA() {
			dst.Blocks[i].Attn.Wv.AddLoRA(fmt.Sprintf("layer%d.attn.v_proj", i), b.Attn.Wv.LoRAA.W.Dim(1), 1, rng)
			dst.Blocks[i].Attn.Wv.LoRAScale = b.Attn.Wv.LoRAScale
		}
		if b.AdptA != nil {
			dst.Blocks[i].AdptA = nn.NewAdapter(fmt.Sprintf("layer%d.adapter_attn", i), src.Cfg.Dim, b.AdptA.Bottleneck, rng)
		}
		if b.AdptM != nil {
			dst.Blocks[i].AdptM = nn.NewAdapter(fmt.Sprintf("layer%d.adapter_mlp", i), src.Cfg.Dim, b.AdptM.Bottleneck, rng)
		}
	}
	if src.Prompt != nil {
		dst.EnablePrompt(src.PromptLen, rng)
	}

	sp := src.Params()
	dp := dst.Params()
	if len(sp) != len(dp) {
		panic(fmt.Sprintf("train: clone parameter count mismatch %d vs %d", len(sp), len(dp)))
	}
	for i := range sp {
		dp[i].W.CopyFrom(sp[i].W)
		dp[i].Frozen = sp[i].Frozen
	}
	return dst
}
