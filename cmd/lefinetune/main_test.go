package main

import (
	"os"
	"path/filepath"
	"testing"

	"longexposure/internal/data"
	"longexposure/internal/durable"
	"longexposure/internal/model"
	"longexposure/internal/nn"
	"longexposure/internal/peft"
	"longexposure/internal/tensor"
	"longexposure/internal/train"
)

func testEngine(seed uint64) (*train.Engine, []data.Batch) {
	spec := model.SimSmall(nn.ActReLU)
	r := tensor.NewRNG(seed)
	m := nn.NewTransformer(spec.Config, r)
	peft.Apply(m, peft.LoRA, peft.Options{LoRARank: 2}, r.Split())
	corpus := data.NewE2ECorpus(spec.Config.Vocab, 3, seed)
	batches := data.Batches(corpus.Generate(4, seed+1), 1, 12)
	return &train.Engine{Model: m, Opt: peft.NewAdamW(1e-3, 0)}, batches
}

// TestCheckpointSaveResumeRoundTrip pins the -save/-resume cycle: training
// is interrupted after a save, a fresh process (fresh engine, same seed)
// resumes from the checkpoint, and the restored weights are bit-equal to
// what the interrupted run saved — so the continued run picks up exactly
// where training stopped.
func TestCheckpointSaveResumeRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.ckpt")

	// "First run": train a little, save, note the weights.
	eng, batches := testEngine(42)
	eng.Run(batches[:2], 1)
	if err := durable.WriteFile(path, eng.Model.Params().Save); err != nil {
		t.Fatal(err)
	}

	// "Resumed run": same construction path as a fresh process, then load.
	resumed, moreBatches := testEngine(42)
	if d := tensor.MaxAbsDiff(resumed.Model.Blocks[0].Attn.Wq.LoRAB.W, eng.Model.Blocks[0].Attn.Wq.LoRAB.W); d == 0 {
		t.Fatal("training moved nothing; the round trip below would be vacuous")
	}
	if err := loadCheckpoint(path, resumed.Model.Params()); err != nil {
		t.Fatal(err)
	}
	for _, p := range eng.Model.Params() {
		rp := resumed.Model.Params().ByName(p.Name)
		if rp == nil {
			t.Fatalf("resumed model missing %s", p.Name)
		}
		if d := tensor.MaxAbsDiff(p.W, rp.W); d != 0 {
			t.Fatalf("parameter %s differs after resume by %v", p.Name, d)
		}
	}

	// The resumed engine trains on without error and saves again.
	res := resumed.Run(moreBatches[2:], 1)
	if res.Steps == 0 {
		t.Fatal("resumed run executed no steps")
	}
	if err := durable.WriteFile(path, resumed.Model.Params().Save); err != nil {
		t.Fatal(err)
	}
}

// TestSaveCheckpointAtomic pins that a failed save never clobbers the
// existing checkpoint (temp-file + rename discipline).
func TestSaveCheckpointAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	eng, _ := testEngine(7)
	if err := durable.WriteFile(path, eng.Model.Params().Save); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A save into an unwritable location fails without touching path.
	if err := durable.WriteFile(filepath.Join(dir, "missing-dir", "x.ckpt"), eng.Model.Params().Save); err == nil {
		t.Fatal("save into missing directory succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("failed save corrupted the existing checkpoint")
	}
}

// TestLoadCheckpointMissingFile pins the -resume fresh-start case.
func TestLoadCheckpointMissingFile(t *testing.T) {
	eng, _ := testEngine(8)
	err := loadCheckpoint(filepath.Join(t.TempDir(), "absent.ckpt"), eng.Model.Params())
	if !os.IsNotExist(err) {
		t.Fatalf("want os.IsNotExist error, got %v", err)
	}
}
