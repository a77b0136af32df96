package experiments

import (
	"fmt"
	"slices"
	"time"

	"longexposure/internal/core"
	"longexposure/internal/model"
	"longexposure/internal/nn"
	"longexposure/internal/peft"
)

// fig7Methods are the PEFT methods Figures 7, 8 and 13 average over.
var fig7Methods = []peft.Method{peft.LoRA, peft.Adapter, peft.BitFit}

// stepRun is one measured dense-vs-Long-Exposure comparison: median step
// time and step-arena high-water bytes of each engine.
type stepRun struct {
	seq                 int
	method              peft.Method
	denseStep, leStep   time.Duration
	denseArena, leArena int64
}

// measureSteps fine-tunes the dense baseline and Long Exposure on the same
// batches from the same seed, for every method in fig7Methods and every
// sequence length from 4·blk doubling up to the spec's MaxSeq. After one
// warm-up step each (allocator, caches), the engines alternate step by
// step over the batches, so a change in the machine's speed lands on
// both, and each reports its median step time. Runs come back ordered by
// sequence length, then method.
func measureSteps(o Options, act nn.Activation) (model.Spec, int, []stepRun) {
	spec := o.simSpec(act)
	batch, _, blk := o.simGeometry()
	steps := o.pick(2, 6)
	var runs []stepRun
	for seq := 4 * blk; seq <= spec.Config.MaxSeq; seq *= 2 {
		batches := e2eBatches(spec, batch, seq, steps, o.seed())
		for _, m := range fig7Methods {
			cfg := core.Config{Prime: true, Spec: spec, Method: m, Blk: blk, Seed: o.seed()}
			dense := core.NewBaseline(cfg)
			sys := core.New(cfg)
			sys.PretrainPredictors(idsOf(batches, o.pick(1, 3)), predictorTrainCfg(o))
			le := sys.Engine()
			dense.Step(batches[0])
			le.Step(batches[0])
			denseT, leT := make([]time.Duration, len(batches)), make([]time.Duration, len(batches))
			for i, b := range batches {
				_, t := dense.Step(b)
				denseT[i] = t.Total()
				_, t = le.Step(b)
				leT[i] = t.Total()
			}
			runs = append(runs, stepRun{
				seq: seq, method: m,
				denseStep: medianDuration(denseT), leStep: medianDuration(leT),
				denseArena: dense.Workspace().AllocBytes(), leArena: le.Workspace().AllocBytes(),
			})
		}
	}
	return spec, batch, runs
}

// medianDuration returns the median of ts, sorting it in place.
func medianDuration(ts []time.Duration) time.Duration {
	slices.Sort(ts)
	if n := len(ts); n%2 == 0 {
		return (ts[n/2-1] + ts[n/2]) / 2
	}
	return ts[len(ts)/2]
}

// Fig7 regenerates Figure 7: execution time per batch and Long Exposure
// speedup for OPT (ReLU) across sequence lengths and PEFT methods,
// measured on the CPU engine at sim scale.
func Fig7(o Options) *Report {
	r := &Report{ID: "fig7", Title: "Execution time per batch and speedup of OPT (measured, sim scale)"}
	speedupSection(r, o, nn.ActReLU)
	r.AddNote("Paper Fig 7 reference: OPT-1.3B/A100 averages 1.25x at seq 512 and 2.49x at seq 1024; speedup grows with sequence length on every platform.")
	return r
}

// Fig13 regenerates Figure 13: the GPT-2 scalability study. GeLU MLPs stay
// dense, so only attention-side optimizations apply (§VII-D) and speedups
// are smaller than OPT's.
func Fig13(o Options) *Report {
	r := &Report{ID: "fig13", Title: "Execution time per batch and speedup of GPT-2 (measured, attention-only)"}
	speedupSection(r, o, nn.ActGeLU)
	r.AddNote("Paper Fig 13 reference: average speedups up to 1.63x (GPT2-Large) and 1.55x (GPT2-XL) — smaller than OPT because the MLP stays dense.")
	return r
}

// speedupSection adds one row per sequence length: each method's measured
// dense→LE median step time and speedup, then the average speedup.
func speedupSection(r *Report, o Options, act nn.Activation) {
	spec, batch, runs := measureSteps(o, act)
	headers := []string{"Seq"}
	for _, m := range fig7Methods {
		headers = append(headers, m.String()+" (ms, dense→LE)")
	}
	headers = append(headers, "Avg speedup")
	var rows [][]string
	for i := 0; i < len(runs); i += len(fig7Methods) {
		row := []string{itoa(runs[i].seq)}
		var sum float64
		for _, run := range runs[i : i+len(fig7Methods)] {
			d, l := run.denseStep.Seconds(), run.leStep.Seconds()
			row = append(row, msF(d)+"→"+msF(l)+" ("+speedup(d, l)+")")
			sum += d / l
		}
		rows = append(rows, append(row, speedup(sum, float64(len(fig7Methods)))))
	}
	r.AddSection(fmt.Sprintf("%s, batch %d, CPU engine", spec.Config.Name, batch), headers, rows)
}
