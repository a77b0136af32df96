package experiments

import (
	"longexposure/internal/core"
	"longexposure/internal/model"
	"longexposure/internal/nn"
	"longexposure/internal/peft"
)

// Table1 regenerates Table I: the per-phase fine-tuning time breakdown of
// OPT-1.3B across Full/LoRA/Adapter/BitFit/P-Tuning, showing that PEFT
// shrinks the optimizer step but leaves forward/backward dominant,
// measured on the sim-scale model (real CPU execution).
func Table1(o Options) *Report {
	r := &Report{ID: "table1", Title: "OPT-1.3B fine-tuning time breakdown (ms/batch)"}

	spec := o.simSpec(nn.ActReLU)
	batch, seq, blk := o.simGeometry()
	steps := o.pick(2, 6)
	var rows [][]string
	for _, m := range peft.AllMethods() {
		eng := core.NewBaseline(core.Config{Prime: true, Spec: spec, Method: m, Blk: blk, Seed: o.seed()})
		batches := e2eBatches(spec, batch, seq, steps, o.seed())
		eng.Run(batches[:1], 1) // warm-up (allocator, caches)
		res := eng.Run(batches, 1)
		pt := res.MeanStepTime()
		tot := pt.Total()
		rows = append(rows, []string{
			m.String(),
			ms(pt.Forward) + " (" + pct(float64(pt.Forward), float64(tot)) + ")",
			ms(pt.Backward) + " (" + pct(float64(pt.Backward), float64(tot)) + ")",
			ms(pt.Optim) + " (" + pct(float64(pt.Optim), float64(tot)) + ")",
			ms(tot),
		})
	}
	r.AddSection("Measured ("+spec.Config.Name+", CPU engine)",
		[]string{"Phase", "Forward", "Backward", "Optim. Step", "Total"}, rows)

	r.AddNote("Paper Table I: Full 407.2 ms (optim 17.3%%); LoRA 334.6 ms (optim 0.6%%); " +
		"Adapter 292.9 ms; Bitfit 290.3 ms; P-Tuning 342.6 ms. " +
		"Shape to match: backward > forward for all methods; PEFT collapses only the optimizer phase.")
	return r
}

// Table2 regenerates Table II: the evaluation model zoo.
func Table2(Options) *Report {
	r := &Report{ID: "table2", Title: "Models for evaluation"}
	var rows [][]string
	for _, s := range model.All() {
		c := s.Config
		rows = append(rows, []string{
			c.Name, string(s.Family), f2(float64(s.ParamCount()) / 1e9), c.Act.String(),
			itoa(c.Layers), itoa(c.Dim), itoa(c.Heads), itoa(c.Hidden),
		})
	}
	r.AddSection("", []string{"Model", "Family", "Params (B)", "Act", "Layers", "Dim", "Heads", "Hidden"}, rows)
	r.AddNote("Paper Table II pairs: OPT 350M/1.3B/2.7B (batch 2/4, seq 512/1024) and GPT-2 774M/1.5B (batch 4/8, seq 512/1024).")
	return r
}

// Table3 regenerates Table III: the downstream tasks.
func Table3(Options) *Report {
	r := &Report{ID: "table3", Title: "Downstream tasks for evaluation"}
	var rows [][]string
	for _, t := range dataTasks() {
		rows = append(rows, []string{t.Name, t.Description, itoa(t.Choices)})
	}
	r.AddSection("", []string{"Task", "Description (synthetic analogue)", "Choices"}, rows)
	r.AddNote("Synthetic analogues preserve each task's decision shape (binary / 4-way choice over structured prompts).")
	return r
}

// Fig10 regenerates Figure 10: the phase breakdown with and without Long
// Exposure across PEFT methods, including the predictor overhead bar —
// measured on the real CPU engine.
func Fig10(o Options) *Report {
	r := &Report{ID: "fig10", Title: "OPT-1.3B fine-tuning performance breakdown (sim-scale, measured)"}
	spec := o.simSpec(nn.ActReLU)
	batch, seq, blk := o.simGeometry()
	steps := o.pick(2, 10)

	methods := []peft.Method{peft.FullFT, peft.LoRA, peft.Adapter, peft.BitFit}
	var rows [][]string
	for _, m := range methods {
		// Dense baseline.
		base := core.NewBaseline(core.Config{Prime: true, Spec: spec, Method: m, Blk: blk, Seed: o.seed()})
		batches := e2eBatches(spec, batch, seq, steps, o.seed())
		dres := base.Run(batches, 1)
		dp := dres.MeanStepTime()

		// Long Exposure.
		sys := core.New(core.Config{Prime: true, Spec: spec, Method: m, Blk: blk, Seed: o.seed()})
		sys.PretrainPredictors(idsOf(batches, o.pick(2, 3)), predictorTrainCfg(o))
		lres := sys.Engine().Run(batches, 1)
		lp := lres.MeanStepTime()

		rows = append(rows,
			[]string{m.String() + " (PEFT)", ms(dp.Forward), ms(dp.Backward), ms(dp.Optim), "-", ms(dp.Total())},
			[]string{m.String() + " (+LongExposure)", ms(lp.Forward), ms(lp.Backward), ms(lp.Optim), ms(lp.Predict), ms(lp.Total())},
		)
	}
	r.AddSection("Per-step phase times (ms)",
		[]string{"Configuration", "Forward", "Backward", "Optim", "Predict", "Total"}, rows)
	r.AddNote("Shape to match (paper Fig 10): Long Exposure shortens forward and backward for every method; prediction overhead stays a small slice.")
	return r
}

func itoa(v int) string { return f0(float64(v)) }

func f0(x float64) string {
	return trimZeros(x)
}

func trimZeros(x float64) string {
	s := f2(x)
	for len(s) > 0 && (s[len(s)-1] == '0') {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s
}

func predictorTrainCfg(o Options) (tc predictorTrainConfig) {
	tc.Epochs = o.pick(5, 20)
	tc.Seed = o.seed()
	return
}
