// Command lefinetune runs a Long Exposure fine-tuning job end to end on the
// synthetic E2E corpus: optional predictor pre-training, phase-timed
// training with per-step progress, a sample generation, and an optional
// weight checkpoint. Ctrl-C cancels the run gracefully, keeping the
// partial result. (For managed, queued jobs over HTTP, see cmd/longexpd.)
//
// Usage:
//
//	lefinetune -method lora -steps 20 -sparse
//	lefinetune -method adapter -steps 10 -save model.ckpt
//	lefinetune -method lora -load model.ckpt -steps 0     # inference only
//	lefinetune -method lora -save model.ckpt -resume      # continue an interrupted run
//
// -resume reloads -save's checkpoint (when it exists) before training, so
// an interrupted run picks up from its last saved weights; optimizer
// moments restart, exactly like resuming from a weights-only checkpoint.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"longexposure/internal/core"
	"longexposure/internal/data"
	"longexposure/internal/durable"
	"longexposure/internal/model"
	"longexposure/internal/nn"
	"longexposure/internal/peft"
	"longexposure/internal/predictor"
	"longexposure/internal/train"
)

func main() {
	var (
		methodF  = flag.String("method", "lora", "fine-tuning method: full|lora|adapter|bitfit|ptuning")
		steps    = flag.Int("steps", 20, "training steps")
		seq      = flag.Int("seq", 128, "sequence length")
		batch    = flag.Int("batch", 2, "batch size")
		blk      = flag.Int("blk", 8, "sparsity block size")
		sparseF  = flag.Bool("sparse", true, "enable Long Exposure sparsity")
		seed     = flag.Uint64("seed", 1, "seed")
		save     = flag.String("save", "", "write a weight checkpoint here after training")
		load     = flag.String("load", "", "load a weight checkpoint before training")
		resume   = flag.Bool("resume", false, "reload -save's checkpoint (if present) before training, continuing an interrupted run")
		progress = flag.Bool("progress", false, "print a line per training step")
	)
	flag.Parse()

	method, err := parseMethod(*methodF)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	spec := model.Sim(model.OPT1p3B())
	cfg := core.Config{
		Spec: spec, Method: method, Blk: *blk, Seed: *seed, LR: 1e-3, Prime: true,
	}
	corpus := data.NewE2ECorpus(spec.Config.Vocab, *seq/12, *seed)
	nBatches := max(1, *steps)
	batches := data.Batches(corpus.Generate(nBatches**batch, *seed+1), *batch, *seq)

	sys := core.New(cfg)
	eng := sys.Engine()
	if !*sparseF {
		eng = core.NewBaseline(cfg)
	} else {
		calib := [][][]int{batches[0].Inputs}
		if len(batches) > 1 {
			calib = append(calib, batches[1].Inputs)
		}
		stats := sys.PretrainPredictors(calib, predictor.TrainConfig{Epochs: 15, Seed: *seed})
		fmt.Printf("predictors: attention recall %.2f, MLP recall %.2f\n", stats.AttnRecall, stats.MLPRecall)
	}

	if *resume {
		if *save == "" {
			fmt.Fprintln(os.Stderr, "lefinetune: -resume needs -save (the checkpoint to continue from)")
			os.Exit(2)
		}
		switch err := loadCheckpoint(*save, eng.Model.Params()); {
		case os.IsNotExist(err):
			fmt.Printf("no checkpoint at %s yet, starting fresh\n", *save)
		case err != nil:
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		default:
			fmt.Printf("resumed from checkpoint %s\n", *save)
		}
	}
	if *load != "" {
		if err := loadCheckpoint(*load, eng.Model.Params()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("loaded checkpoint %s\n", *load)
	}

	total, trainable := eng.Model.NumParams()
	fmt.Printf("model %s: %d params, %d trainable (%.3f%%), method %s, sparse=%v\n",
		spec, total, trainable, 100*float64(trainable)/float64(total), method, *sparseF)

	if *steps > 0 {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		hook := func(si train.StepInfo) {
			if *progress {
				fmt.Printf("step %d/%d: loss %.4f (%.1fms)\n",
					si.GlobalStep+1, si.TotalSteps, si.Loss, si.Times.Total().Seconds()*1000)
			}
		}
		res, err := eng.RunContext(ctx, batches[:min(*steps, len(batches))], 1, hook)
		stop()
		if errors.Is(err, context.Canceled) {
			fmt.Printf("interrupted after %d steps\n", res.Steps)
		}
		if res.Steps > 0 {
			pt := res.MeanStepTime()
			fmt.Printf("trained %d steps: loss %.4f → %.4f\n", res.Steps, res.Losses[0], res.FinalLoss())
			fmt.Printf("per step: forward %.1fms backward %.1fms optim %.1fms predict %.1fms\n",
				pt.Forward.Seconds()*1000, pt.Backward.Seconds()*1000,
				pt.Optim.Seconds()*1000, pt.Predict.Seconds()*1000)
		}
	}

	// Sample generation from the first prompt.
	prompt := batches[0].Inputs[0][:8]
	out := eng.Model.Generate(prompt, nn.GenerateConfig{MaxTokens: 12, StopToken: data.TokEOS})
	fmt.Printf("sample generation from %v: %v\n", prompt, out)

	if *save != "" {
		// Atomic and fsynced: a crash mid-save never corrupts the
		// checkpoint a -resume run would reload.
		if err := durable.WriteFile(*save, eng.Model.Params().Save); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("saved checkpoint %s\n", *save)
	}
}

// loadCheckpoint restores the parameter set from path. The os.IsNotExist
// case is surfaced unchanged so -resume can treat a missing checkpoint as
// a fresh start.
func loadCheckpoint(path string, ps nn.ParamSet) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return ps.Load(f)
}

func parseMethod(s string) (peft.Method, error) {
	switch strings.ToLower(s) {
	case "full":
		return peft.FullFT, nil
	case "lora":
		return peft.LoRA, nil
	case "adapter":
		return peft.Adapter, nil
	case "bitfit":
		return peft.BitFit, nil
	case "ptuning":
		return peft.PTuning, nil
	default:
		return 0, fmt.Errorf("unknown method %q", s)
	}
}
