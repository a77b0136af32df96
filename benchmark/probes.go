package main

import (
	"context"
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	le "longexposure"
	"longexposure/internal/infer"
	"longexposure/internal/nn"
	"longexposure/internal/predictor"
	"longexposure/internal/registry"
	"longexposure/internal/sparse"
	"longexposure/internal/tensor"
)

// The layer probes of the traced run time each package's public functions
// from here, at the shapes the workload uses, with fixed iteration counts.
// Every iteration is a span under one "probes" trace; a probe's metric is
// the median of its iterations.

const promptProbeLen = 32 // the longest prompt of the serve traffic

// prober runs probes and records them on an outcome and a recorder.
type prober struct {
	out   *outcome
	rec   *recorder
	trace int
}

// measure runs fn iters times after one untimed call and reports the median
// duration under name, converted by unit (ms or us).
func (p *prober) measure(name, unit string, iters int, fn func()) {
	span := strings.TrimSuffix(name, "_"+unit)
	fn()
	ds := make([]float64, iters)
	for i := range ds {
		t0 := time.Now()
		fn()
		t1 := time.Now()
		p.rec.add(p.trace, 0, span, t0, t1)
		ds[i] = us(t1.Sub(t0))
	}
	v := median(ds)
	if unit == "ms" {
		v /= 1e3
	}
	p.out.add(name, v, unit, iters)
}

func randTensor(rng *tensor.RNG, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	rng.FillNormal(t, 1)
	return t
}

// runProbes measures the per-layer metrics that do not depend on the timed
// window: kernels, predictor pre-training and planning, the exposer, cached
// decode, the in-process generation engine and the registry.
func runProbes(out *outcome, rec *recorder, sh shape, seed uint64) {
	p := &prober{out: out, rec: rec, trace: rec.newTrace()}
	c := sh.spec.Config
	rng := tensor.NewRNG(seed)
	ws := tensor.NewArena()
	rows := sh.batch * sh.seq
	li := c.Layers / 2 // a middle layer: auto sparsity keeps the first and last dense

	// predictor + exposer: the offline phase every sparse path pays once.
	batches := sh.batches(seed, ftCalibration)
	calib := calibration(batches)
	sys := le.New(sh.config())
	t0 := time.Now()
	stats := sys.PretrainPredictors(calib, le.TrainConfig{Epochs: ftPredEpochs, Seed: seed})
	t1 := time.Now()
	rec.add(p.trace, 0, "predictor.pretrain", t0, t1)
	out.add("predictor.pretrain_s", t1.Sub(t0).Seconds(), "s", 1)
	out.add("predictor.attn_recall", stats.AttnRecall, "ratio", len(calib))
	out.add("predictor.mlp_recall", stats.MLPRecall, "ratio", len(calib))
	attnDensity, mlpDensity := sys.Densities(calib)
	out.add("predictor.attn_density", attnDensity, "ratio", len(calib))
	out.add("predictor.mlp_density", mlpDensity, "ratio", len(calib))

	sample := predictor.Collect(sys.Model, calib[:1])[0].Layers[li]
	p.measure("exposer.expose_ms", "ms", 5, func() {
		sys.Exposer.ExposeAttention(sample.Probs[:c.Heads], 1, c.Heads)
	})

	// tensor: the training GEMM and the m=1 decode GEMM, f32 and int8.
	a, a1 := randTensor(rng, rows, c.Dim), randTensor(rng, 1, c.Dim)
	w := randTensor(rng, c.Hidden, c.Dim)
	w8 := tensor.PackInt8(w, tensor.ScalePerRow)
	p.measure("tensor.gemm_train_ms", "ms", 50, func() { tensor.MatMulTBIn(ws, a, w); ws.Release() })
	out.add("tensor.gemm_train_mflop", 2*float64(rows*c.Dim*c.Hidden)/1e6, "MFLOP", 1)
	out.add("tensor.gemm_train_kbytes", 4*float64(rows*c.Dim+c.Hidden*c.Dim+rows*c.Hidden)/1e3, "kB", 1)
	p.measure("tensor.gemm_m1_f32_us", "us", 2000, func() { tensor.MatMulTBIn(ws, a1, w); ws.Release() })
	p.measure("tensor.gemm_m1_int8_us", "us", 2000, func() { tensor.MatMulTBPackedIn(ws, a1, w8); ws.Release() })
	out.add("tensor.gemm_m1_kflop", 2*float64(c.Dim*c.Hidden)/1e3, "kFLOP", 1)

	// sparse: one sequence's multi-head block-sparse attention and the
	// neuron-sparse MLP, on the layouts and blocks the trained predictors
	// choose for the calibration batch.
	hd := c.Dim / c.Heads
	layouts := sys.Predictors.Layers[li].Attn.Predict(sample.AttnInput, sh.batch, sh.seq, sys.Exposer)
	hl := sparse.Combine(layouts[:c.Heads])
	heads := func() [][]float32 {
		hs := make([][]float32, c.Heads)
		for h := range hs {
			hs[h] = randTensor(rng, sh.seq, hd).Data
		}
		return hs
	}
	q, k, v := heads(), heads(), heads()
	ctx := make([][]float32, c.Heads)
	scale := float32(1 / math.Sqrt(float64(hd)))
	p.measure("sparse.attn_ms", "ms", 30, func() {
		cs := sparse.NewCombinedSparseIn(ws, hl, sh.blk)
		for h := range ctx {
			ctx[h] = tensor.FloatsIn(ws, sh.seq*hd)
		}
		sparse.MultiHeadSDD(cs, q, k, hd)
		sparse.MultiHeadCausalSoftmax(cs, scale)
		sparse.MultiHeadDSD(ctx, v, cs, hd)
		ws.Release()
	})
	out.add("sparse.attn_active_blocks", float64(hl.TotalBlocks()), "count", 1)

	mlp := sys.Model.Blocks[li].MLP
	w1 := sparse.ColMajor{In: c.Dim, Out: c.Hidden, Data: mlp.W1.W.Data}
	w2 := sparse.RowMajor{In: c.Hidden, Out: c.Dim, Data: mlp.W2.W.Data}
	blocks := sys.Predictors.Layers[li].MLP.Predict(sample.MLPInput)
	p.measure("sparse.mlp_ms", "ms", 30, func() {
		hidden, y := tensor.FloatsIn(ws, rows*c.Hidden), tensor.FloatsIn(ws, rows*c.Dim)
		sparse.FC1Sparse(hidden, sample.MLPInput.Data, rows, &w1, blocks, sh.blk)
		sparse.FC2Sparse(y, hidden, rows, &w2, blocks, sh.blk)
		ws.Release()
	})
	out.add("sparse.mlp_active_blocks", float64(len(blocks)), "count", 1)

	// The serving planner's default keeps half the neuron blocks.
	var half []int
	for b := 0; b < c.Hidden/sh.blk; b += 2 {
		half = append(half, b)
	}
	p.measure("sparse.decode_mlp_us", "us", 2000, func() {
		hidden, y := tensor.FloatsIn(ws, c.Hidden), tensor.FloatsIn(ws, c.Dim)
		sparse.DecodeFC1Gather(hidden, a1.Data, &w1, mlp.B1.W.Data, half, sh.blk)
		sparse.DecodeFC2Scatter(y, hidden, &w2, half, sh.blk)
		ws.Release()
	})

	// predictor (serving) and nn: one request's planning and cached decode.
	prompt := make([]int, promptProbeLen)
	for i := range prompt {
		prompt[i] = 10 + rng.Intn(c.Vocab-10)
	}
	m, ad := sys.Model, sys.Model.SelfAdapter()
	planner, err := predictor.NewServingPlanner(m, nil, predictor.ServingConfig{Blk: sh.blk}).
		NewSequencePlanner(nn.SparsityOptions{Mode: nn.SparsityAuto})
	if err != nil {
		panic(err) // the options are constants
	}
	planner.BeginSequence(prompt, ad)
	pos := len(prompt)
	p.measure("predictor.serve_plan_us", "us", maxTokens-1, func() {
		planner.PlanStep(prompt[pos%len(prompt)], pos, ws)
		ws.Release()
		pos++
	})

	cache := m.NewKVCache()
	step := func(ids []int) {
		m.DecodeStepCfg(cache, ids, nn.DecodeStepConfig{Adapter: ad, WS: ws})
		ws.Release()
	}
	p.measure("nn.prefill_ms", "ms", 20, func() { cache.Reset(); step(prompt) })
	p.measure("nn.decode_step_us", "us", maxTokens-1, func() { step(prompt[:1]) })

	// infer: the generation engine in process, one stream then four.
	eng := le.NewGenerateEngine(m, infer.Config{MaxBatch: 4})
	b1 := p.engineRate(eng, ad, prompt, 1, 4)
	b4 := p.engineRate(eng, ad, prompt, 4, 2)
	eng.Close()
	out.add("infer.tokens_per_s_b1", b1, "tokens/s", 4*maxTokens)
	out.add("infer.tokens_per_s_b4", b4, "tokens/s", 8*maxTokens)
	out.add("infer.batch_efficiency", b4/b1, "ratio", 1)

	// registry: publish and load the model's delta in a temp store.
	if err := p.registry(sys); err != nil {
		out.problemf("registry probe: %v", err)
	}
}

// engineRate generates with streams concurrent callers, each sending
// perStream requests one after another, and returns tokens per second.
func (p *prober) engineRate(eng *le.GenerateEngine, ad *nn.DecodeAdapter, prompt []int, streams, perStream int) float64 {
	tokens := make([]int, streams)
	t0 := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perStream; i++ {
				st, err := eng.Generate(context.Background(), le.GenerateRequest{Prompt: prompt, MaxTokens: maxTokens, Adapter: ad})
				if err != nil {
					return
				}
				out, _, _ := st.Collect()
				tokens[s] += len(out)
			}
		}()
	}
	wg.Wait()
	t1 := time.Now()
	p.rec.add(p.trace, 0, fmt.Sprintf("infer.generate_b%d", streams), t0, t1)
	total := 0
	for _, n := range tokens {
		total += n
	}
	return float64(total) / t1.Sub(t0).Seconds()
}

func (p *prober) registry(sys *le.System) error {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(buildDir, "registry-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	reg, err := le.OpenRegistry(dir)
	if err != nil {
		return err
	}
	delta := le.ExtractDelta(sys.Model)
	spec := registry.Spec{Name: "probe", Method: "lora", Rank: 8, Alpha: 16,
		Base: registry.BaseDesc{Model: jobModel, Activation: "relu", Seed: sys.Cfg.Seed, Blk: sys.Cfg.Blk, Prime: true}}
	var publish, load []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		man, err := reg.Publish(spec, delta)
		t1 := time.Now()
		if err != nil {
			return err
		}
		_, _, err = reg.Load(man.ID)
		t2 := time.Now()
		if err != nil {
			return err
		}
		p.rec.add(p.trace, 0, "registry.publish", t0, t1)
		p.rec.add(p.trace, 0, "registry.load", t1, t2)
		publish, load = append(publish, ms(t1.Sub(t0))), append(load, ms(t2.Sub(t1)))
		if err := reg.Delete(man.ID); err != nil {
			return err
		}
	}
	p.out.add("registry.publish_ms", median(publish), "ms", len(publish))
	p.out.add("registry.load_ms", median(load), "ms", len(load))
	return nil
}

// finishTrace ends a traced run: the layer probes at the workload's shape,
// the span file, and per span name the summed self time (a span's duration
// minus what its children cover).
func finishTrace(out *outcome, rec *recorder, workload string, sh shape, opts runOpts) error {
	runProbes(out, rec, sh, opts.seed)
	path, err := rec.write(opts.outDir, workload, opts.seed)
	if err != nil {
		return err
	}
	fmt.Printf("  spans written to %s\n", path)
	self := selfByName(rec.spans)
	fmt.Println("  self time by span:")
	for _, n := range slices.Sorted(maps.Keys(self)) {
		fmt.Printf("    %-28s %12.3f ms\n", n, self[n])
	}
	return nil
}
