// Package jobs turns Long Exposure fine-tuning sessions and paper
// experiments into managed workloads: a job store with a priority/FIFO
// scheduler, a bounded worker pool, per-job lifecycle
// (queued → running → done/failed/cancelled) with context-based
// cancellation, per-step progress events on subscriber channels, and a
// result cache keyed by a deterministic hash of the job spec so repeated
// submissions are served instantly.
//
// The package is the service layer the HTTP API (internal/serve) sits on;
// it mirrors how SparseLoRA/SLoPe wrap their sparsity-accelerated training
// behind a trainer façade, translated to a concurrent Go service.
package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"longexposure/internal/core"
	"longexposure/internal/experiments"
	"longexposure/internal/model"
	"longexposure/internal/nn"
	"longexposure/internal/peft"
)

// Kind selects what a job executes.
type Kind string

const (
	// KindFinetune runs a fine-tuning session (Long Exposure or dense
	// baseline) assembled from a FinetuneSpec.
	KindFinetune Kind = "finetune"
	// KindExperiment runs one experiments.Registry driver.
	KindExperiment Kind = "experiment"
)

// Spec is the JSON job submission. Exactly one of Finetune/Experiment must
// be set, matching Kind. Priority orders the queue (higher first, FIFO
// within a priority level) and is excluded from the result-cache hash —
// the same work at a different priority is still the same work.
type Spec struct {
	Kind     Kind `json:"kind"`
	Priority int  `json:"priority,omitempty"`

	// Tenant is the submitting principal, stamped by the API layer at
	// admission (never client-supplied JSON). It is excluded from both the
	// submission body and the result-cache hash — the same work submitted
	// by two tenants is still the same work.
	Tenant string `json:"-"`

	Finetune   *FinetuneSpec   `json:"finetune,omitempty"`
	Experiment *ExperimentSpec `json:"experiment,omitempty"`
}

// FinetuneSpec describes a fine-tuning job. Model names resolve through
// the Table II zoo but always build the CPU-trainable sim-scale variant
// (model.Sim); "sim-small" (the default) is the test-size config.
type FinetuneSpec struct {
	Model      string `json:"model,omitempty"`      // "sim-small" or a Table II name ("OPT-1.3B", …)
	Activation string `json:"activation,omitempty"` // "relu" (default) | "gelu", sim-small only
	Method     string `json:"method,omitempty"`     // full|lora|adapter|bitfit|ptuning (default lora)
	// Sparse selects the Long Exposure path (default true); false runs the
	// dense PEFT baseline.
	Sparse *bool `json:"sparse,omitempty"`

	Epochs int `json:"epochs,omitempty"` // default 1
	Steps  int `json:"steps,omitempty"`  // batches per epoch, default 4
	Batch  int `json:"batch,omitempty"`  // default 2
	Seq    int `json:"seq,omitempty"`    // default 32
	Blk    int `json:"blk,omitempty"`    // sparsity block size, default 8

	LR   float64 `json:"lr,omitempty"`   // default 1e-3
	Seed uint64  `json:"seed,omitempty"` // default 1

	// PredictorEpochs tunes the offline predictor pre-training phase
	// (sparse jobs only, default 6).
	PredictorEpochs int `json:"predictor_epochs,omitempty"`

	// Precision selects the weight storage of the published base artifact
	// ("f32" default, "f16", "int8", "nm24"). Training always runs f32;
	// the choice is recorded in the artifact's base descriptor, and the
	// serving gateway compresses the rebuilt base to match at load time.
	Precision string `json:"precision,omitempty"`
}

// ExperimentSpec names one registered paper experiment.
type ExperimentSpec struct {
	ID string `json:"id"`
	// Quick selects reduced sizes (default true — a service should not
	// default to minutes-long full-fidelity runs).
	Quick *bool  `json:"quick,omitempty"`
	Seed  uint64 `json:"seed,omitempty"`
}

// boolOr dereferences an optional bool.
func boolOr(p *bool, def bool) bool {
	if p == nil {
		return def
	}
	return *p
}

// Normalized resolves every defaulted field, so equal work hashes equally
// regardless of how sparsely the submission was written.
func (s Spec) Normalized() Spec {
	out := s
	switch s.Kind {
	case KindFinetune:
		if s.Finetune != nil {
			f := s.Finetune.normalized()
			out.Finetune = &f
		}
	case KindExperiment:
		if s.Experiment != nil {
			e := *s.Experiment
			q := boolOr(e.Quick, true)
			e.Quick = &q
			if e.Seed == 0 {
				e.Seed = 2024 // experiments.Options default
			}
			out.Experiment = &e
		}
	}
	return out
}

func (f FinetuneSpec) normalized() FinetuneSpec {
	if f.Model == "" {
		f.Model = "sim-small"
	}
	if f.Activation == "" {
		f.Activation = "relu"
	}
	if f.Method == "" {
		f.Method = "lora"
	}
	// methodFromString is case-insensitive, so fold case here too: "LoRA"
	// and "lora" build identical work and must share a cache hash.
	f.Method = strings.ToLower(f.Method)
	sparse := boolOr(f.Sparse, true)
	f.Sparse = &sparse
	if f.Epochs == 0 {
		f.Epochs = 1
	}
	if f.Steps == 0 {
		f.Steps = 4
	}
	if f.Batch == 0 {
		f.Batch = 2
	}
	if f.Seq == 0 {
		f.Seq = 32
	}
	if f.Blk == 0 {
		f.Blk = 8
	}
	if f.LR == 0 {
		f.LR = 1e-3
	}
	if f.Seed == 0 {
		f.Seed = 1
	}
	if f.PredictorEpochs == 0 {
		f.PredictorEpochs = 6
	}
	// "f32" is the default spelled out: fold to empty so it hashes (and
	// base-descriptor-hashes) identically to a spec that omitted it.
	if f.Precision == nn.PrecisionF32 {
		f.Precision = ""
	}
	return f
}

// Validate rejects malformed submissions before they reach the queue.
func (s Spec) Validate() error {
	switch s.Kind {
	case KindFinetune:
		if s.Finetune == nil {
			return fmt.Errorf("jobs: kind %q requires a finetune spec", s.Kind)
		}
		if s.Experiment != nil {
			return fmt.Errorf("jobs: kind %q must not carry an experiment spec", s.Kind)
		}
		return s.Finetune.validate()
	case KindExperiment:
		if s.Experiment == nil {
			return fmt.Errorf("jobs: kind %q requires an experiment spec", s.Kind)
		}
		if s.Finetune != nil {
			return fmt.Errorf("jobs: kind %q must not carry a finetune spec", s.Kind)
		}
		if _, ok := experiments.Registry[s.Experiment.ID]; !ok {
			return fmt.Errorf("jobs: unknown experiment id %q (have %v)", s.Experiment.ID, experiments.IDs())
		}
		return nil
	default:
		return fmt.Errorf("jobs: unknown job kind %q (want %q or %q)", s.Kind, KindFinetune, KindExperiment)
	}
}

// maxCorpusTokens bounds a fine-tune job's corpus, steps·batch·seq
// tokens: the runner builds every example up front, with no cancellation
// point, so an unbounded product could exhaust the daemon's memory before
// the job could be stopped. A token is held as up to four ints (the
// generated example's input and target, and their padded copies), so 2²²
// tokens is at most about 128 MiB.
const maxCorpusTokens = 1 << 22

// maxPredictorEpochs bounds predictor pre-training, which the runner runs
// with no cancellation point: a job stays uncancellable for as long as it
// lasts. The job default is 6 epochs and cmd/lefinetune runs 15.
const maxPredictorEpochs = 100

func (f FinetuneSpec) validate() error {
	n := f.normalized()
	cfg, err := n.CoreConfig()
	if err != nil {
		return err
	}
	switch n.Activation {
	case "relu", "gelu":
	default:
		return fmt.Errorf("jobs: unknown activation %q (want relu or gelu)", f.Activation)
	}
	if !nn.ValidPrecision(n.Precision) {
		return fmt.Errorf("jobs: unknown base precision %q (want f32, f16, int8 or nm24)", f.Precision)
	}
	if f.Epochs < 0 || f.Steps < 0 || f.Batch < 0 || f.Seq < 0 || f.Blk < 0 || f.PredictorEpochs < 0 {
		return fmt.Errorf("jobs: negative finetune geometry")
	}
	if f.LR < 0 {
		return fmt.Errorf("jobs: negative learning rate")
	}
	if n.PredictorEpochs > maxPredictorEpochs {
		return fmt.Errorf("jobs: predictor_epochs %d exceeds %d", n.PredictorEpochs, maxPredictorEpochs)
	}
	prompt := 0
	if cfg.Method == peft.PTuning {
		prompt = cfg.PEFT.Resolved(cfg.Spec.Config.Dim).PromptTokens
	}
	if maxSeq := cfg.Spec.Config.MaxSeq; n.Seq > maxSeq-prompt {
		return fmt.Errorf("jobs: seq %d plus %d prompt rows exceeds %s's MaxSeq %d", n.Seq, prompt, n.Model, maxSeq)
	}
	// The sparse path (predictors, exposer, block-sparse attention) splits
	// every sequence, prompt rows included, into blk-token blocks.
	if *n.Sparse && (n.Seq+prompt)%n.Blk != 0 {
		return fmt.Errorf("jobs: sparse seq %d plus %d prompt rows is not a multiple of blk %d", n.Seq, prompt, n.Blk)
	}
	if n.Steps > maxCorpusTokens/n.Batch/n.Seq {
		return fmt.Errorf("jobs: corpus of steps %d × batch %d × seq %d tokens exceeds %d", n.Steps, n.Batch, n.Seq, maxCorpusTokens)
	}
	return nil
}

// modelSpec resolves the sim-scale model of a normalized spec.
func (f FinetuneSpec) modelSpec() (model.Spec, error) {
	if f.Model == "sim-small" {
		act := nn.ActReLU
		if f.Activation == "gelu" {
			act = nn.ActGeLU
		}
		return model.SimSmall(act), nil
	}
	base, err := model.ByName(f.Model)
	if err != nil {
		return model.Spec{}, err
	}
	return model.Sim(base), nil
}

// CoreConfig assembles the session config of a normalized spec, resolving
// core's own defaults too so the hash covers exactly what gets built.
func (f FinetuneSpec) CoreConfig() (core.Config, error) {
	spec, err := f.modelSpec()
	if err != nil {
		return core.Config{}, err
	}
	method, err := methodFromString(f.Method)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Spec:   spec,
		Method: method,
		Blk:    f.Blk,
		LR:     f.LR,
		Seed:   f.Seed,
		Prime:  true,
	}.Normalized(), nil
}

func methodFromString(s string) (peft.Method, error) {
	m, err := peft.ParseMethod(s)
	if err != nil {
		return 0, fmt.Errorf("jobs: %w", err)
	}
	return m, nil
}

// Hash returns the deterministic cache key of the spec: SHA-256 over the
// canonical JSON of the normalized spec with priority cleared. Two
// submissions that build and run the same work share a hash, so the second
// is served from the result cache.
func (s Spec) Hash() string {
	n := s.Normalized()
	n.Priority = 0
	b, err := json.Marshal(n)
	if err != nil {
		// Spec is a plain data struct; Marshal cannot fail on it.
		panic(fmt.Sprintf("jobs: hashing spec: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}
