package main

import (
	"fmt"
	"math"
	"time"

	le "longexposure"
)

// The fine-tune workloads follow cmd/lefinetune: LoRA on a primed sim
// model, the synthetic E2E corpus, and for the sparse path two calibration
// batches of predictor pre-training.
const (
	ftSetups      = 3  // set-ups per run; setup_s and first_ms are their medians
	ftBatches     = 64 // distinct batches, cycled like epochs
	ftCalibration = 2
	ftPredEpochs  = 6
	ftLossWindow  = 20 // steps averaged at each end for the loss-fell check
	maxLossGap    = 0.05
)

func (s shape) config() le.Config {
	return le.Config{Spec: s.spec, Method: le.LoRA, Blk: s.blk, Seed: checkpointSeed, LR: 1e-3, Prime: true}
}

func (s shape) batches(seed uint64, n int) []le.Batch {
	corpus := le.NewE2ECorpus(s.spec.Config.Vocab, s.seq/12, seed)
	return le.Batches(corpus.Generate(n*s.batch, seed+1), s.batch, s.seq)
}

func calibration(batches []le.Batch) [][][]int {
	var calib [][][]int
	for _, b := range batches[:ftCalibration] {
		calib = append(calib, b.Inputs)
	}
	return calib
}

// ftSession is one fine-tuning run in progress: the engine, its data, and
// every loss it has produced since construction.
type ftSession struct {
	eng     *le.Engine
	batches []le.Batch
	steps   int
	losses  []float64
}

func (s *ftSession) next() le.Batch { return s.batches[s.steps%len(s.batches)] }

// ftSetup is everything before the first timed operation, as lefinetune
// does it: build the model, pre-train the predictors (sparse only), run the
// warm-up steps. first is the time to the first completed step.
func ftSetup(p *finetuneParams, seed uint64, batches []le.Batch) (s *ftSession, setup, first time.Duration) {
	t0 := time.Now()
	cfg := p.config()
	s = &ftSession{batches: batches}
	if p.sparse {
		sys := le.New(cfg)
		sys.PretrainPredictors(calibration(batches), le.TrainConfig{Epochs: ftPredEpochs, Seed: seed})
		s.eng = sys.Engine()
	} else {
		s.eng = le.NewBaseline(cfg)
	}
	for i := 0; i < p.warmup; i++ {
		loss, _ := s.eng.Step(s.next())
		s.steps++
		s.losses = append(s.losses, loss)
		if i == 0 {
			first = time.Since(t0)
		}
	}
	return s, time.Since(t0), first
}

// ftWindow is one timed window of steps.
type ftWindow struct {
	stepMs                            []float64
	forward, predict, backward, optim time.Duration
	wall, cpu                         time.Duration
}

// window steps until d has passed. With a recorder, every step becomes one
// trace: finetune.step with children laid out from the returned PhaseTimes.
func (s *ftSession) window(d time.Duration, rec *recorder) ftWindow {
	var w ftWindow
	cpu0, start := cpuTime(), time.Now()
	for time.Since(start) < d {
		b := s.next()
		t0 := time.Now()
		loss, pt := s.eng.Step(b)
		t1 := time.Now()
		s.steps++
		s.losses = append(s.losses, loss)
		w.stepMs = append(w.stepMs, ms(t1.Sub(t0)))
		w.forward += pt.Forward
		w.predict += pt.Predict
		w.backward += pt.Backward
		w.optim += pt.Optim
		if rec != nil {
			tr := rec.newTrace()
			root := rec.add(tr, 0, "finetune.step", t0, t1)
			at := t0
			for _, ph := range []struct {
				name string
				d    time.Duration
			}{{"nn.forward", pt.Forward}, {"predictor.plan", pt.Predict}, {"nn.backward", pt.Backward}, {"peft.optim", pt.Optim}} {
				if ph.d > 0 {
					rec.add(tr, root, ph.name, at, at.Add(ph.d))
					at = at.Add(ph.d)
				}
			}
		}
	}
	w.wall, w.cpu = time.Since(start), cpuTime()-cpu0
	return w
}

func (w *ftWindow) merge(o ftWindow) {
	w.stepMs = append(w.stepMs, o.stepMs...)
	w.forward, w.predict, w.backward, w.optim = w.forward+o.forward, w.predict+o.predict, w.backward+o.backward, w.optim+o.optim
	w.wall, w.cpu = w.wall+o.wall, w.cpu+o.cpu
}

func (w ftWindow) tokensPerS(p *finetuneParams) float64 {
	return float64(p.batch*p.seq*len(w.stepMs)) / w.wall.Seconds()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func runFinetune(w workload, opts runOpts) (*outcome, error) {
	p := w.finetune
	out := &outcome{}
	batches := p.batches(opts.seed, ftBatches)

	var sess *ftSession
	var setups, firsts []float64
	for i := 0; i < ftSetups; i++ {
		s, setup, first := ftSetup(p, opts.seed, batches)
		sess = s
		setups = append(setups, setup.Seconds())
		firsts = append(firsts, ms(first))
	}
	out.add("setup_s", median(setups), "s", len(setups))
	out.add("first_ms", median(firsts), "ms", len(firsts))

	var win, traced ftWindow
	var rec *recorder
	if opts.traced {
		rec = newRecorder()
	}
	for n, d := opts.windows(); n > 0; n-- {
		win.merge(sess.window(d, nil))
		if opts.traced {
			traced.merge(sess.window(d, rec))
		}
	}
	out.add("gap_ms", median(win.stepMs), "ms", len(win.stepMs))
	out.add("tokens_per_s", win.tokensPerS(p), "tokens/s", len(win.stepMs))
	tailRow(out, "gap", win.stepMs)

	if opts.traced {
		n := len(traced.stepMs)
		per := func(d time.Duration) float64 { return ms(d) / float64(n) }
		out.add("nn.forward_ms", per(traced.forward), "ms", n)
		out.add("predictor.plan_ms", per(traced.predict), "ms", n)
		out.add("nn.backward_ms", per(traced.backward), "ms", n)
		out.add("peft.optim_ms", per(traced.optim), "ms", n)
		out.add("proc.cpu_ms_per_step", per(traced.cpu), "ms", n)
		out.add("proc.rss_mb", rssMB("self"), "MB", 1)
		out.add("trace_overhead.gap_ms", median(traced.stepMs)/median(win.stepMs), "ratio", n)
		out.add("trace_overhead.tokens_per_s", traced.tokensPerS(p)/win.tokensPerS(p), "ratio", n)
		if err := finishTrace(out, rec, w.name, p.shape, opts); err != nil {
			return nil, err
		}
	}

	// Correctness: every loss finite, the loss fell over the timed window,
	// and a sparse run stays within maxLossGap of the dense baseline on the
	// same seed and data.
	timed := sess.losses[p.warmup:]
	out.attempted = len(timed)
	for _, l := range sess.losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			out.failed++
		}
	}
	k := min(ftLossWindow, len(timed)/2)
	if k == 0 || len(sess.losses) < p.verifySteps {
		return nil, fmt.Errorf("only %d timed steps, too few to check the losses: raise -seconds", len(timed))
	}
	head, last := mean(timed[:k]), mean(timed[len(timed)-k:])
	out.add("loss_first", head, "nats", k)
	out.add("loss_last", last, "nats", k)
	if !(last <= head) {
		out.problemf("loss did not fall: mean of last %d steps %.4f > mean of first %d steps %.4f", k, last, k, head)
	}
	if p.sparse {
		dense := le.NewBaseline(p.config())
		var ref float64
		for i := 0; i < p.verifySteps; i++ {
			ref, _ = dense.Step(batches[i%len(batches)])
		}
		gap := math.Abs(sess.losses[p.verifySteps-1]-ref) / ref
		out.add("loss_gap", gap, "ratio", p.verifySteps)
		if !(gap <= maxLossGap) {
			out.problemf("sparse loss after %d steps is %.4f, dense %.4f: gap %.3f > %.2f", p.verifySteps, sess.losses[p.verifySteps-1], ref, gap, maxLossGap)
		}
	}
	return out, nil
}
