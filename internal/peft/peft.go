// Package peft implements the parameter-efficient fine-tuning methods the
// paper evaluates (LoRA, Adapter, BitFit, P-Tuning — Table I / §VII-A) plus
// the full fine-tuning baseline, and the optimizers that update the
// trainable set.
//
// Every method follows the same shape: freeze the whole backbone, then
// inject or unfreeze a small parameter set. The forward/backward cost stays
// essentially that of the backbone (the paper's §II-C analysis); only the
// optimizer-step cost shrinks — which is exactly why Long Exposure targets
// the forward/backward passes.
package peft

import (
	"fmt"
	"strings"

	"longexposure/internal/half"

	"longexposure/internal/nn"
	"longexposure/internal/tensor"
)

// Method enumerates the fine-tuning strategies.
type Method uint8

const (
	// FullFT updates every parameter (the non-PEFT baseline).
	FullFT Method = iota
	// LoRA injects low-rank adapters into the attention Q and V projections.
	LoRA
	// Adapter inserts bottleneck adapters after each sublayer.
	Adapter
	// BitFit unfreezes only bias terms.
	BitFit
	// PTuning prepends trainable continuous prompt embeddings.
	PTuning
)

// String names the method as the paper's tables do.
func (m Method) String() string {
	switch m {
	case FullFT:
		return "Full Param."
	case LoRA:
		return "LoRA"
	case Adapter:
		return "Adapter"
	case BitFit:
		return "Bitfit"
	case PTuning:
		return "P-Tuning"
	default:
		return fmt.Sprintf("Method(%d)", uint8(m))
	}
}

// Key returns the stable lowercase identifier used in job specs and
// adapter manifests — the inverse of ParseMethod.
func (m Method) Key() string {
	switch m {
	case FullFT:
		return "full"
	case LoRA:
		return "lora"
	case Adapter:
		return "adapter"
	case BitFit:
		return "bitfit"
	case PTuning:
		return "ptuning"
	default:
		return fmt.Sprintf("method-%d", uint8(m))
	}
}

// ParseMethod resolves a method key (case-insensitive) — the inverse of Key.
func ParseMethod(s string) (Method, error) {
	switch strings.ToLower(s) {
	case "full":
		return FullFT, nil
	case "lora":
		return LoRA, nil
	case "adapter":
		return Adapter, nil
	case "bitfit":
		return BitFit, nil
	case "ptuning":
		return PTuning, nil
	default:
		return 0, fmt.Errorf("peft: unknown method %q (want full|lora|adapter|bitfit|ptuning)", s)
	}
}

// AllMethods lists every method in Table I order.
func AllMethods() []Method { return []Method{FullFT, LoRA, Adapter, BitFit, PTuning} }

// Options tunes the injected modules.
type Options struct {
	LoRARank     int     // default 8
	LoRAAlpha    float64 // default 16
	Bottleneck   int     // adapter width, default dim/4 capped at 64
	PromptTokens int     // default 16

	// LoRAFreezeA freezes the LoRA down-projection (LoRA-FA, paper ref
	// [65]): only B trains, halving LoRA optimizer state and skipping the
	// dA computation in backward.
	LoRAFreezeA bool

	// QuantizeBackbone rounds every frozen backbone weight through fp16
	// (QLoRA-style reduced-precision storage, paper ref [60]) — the values
	// kernels actually see under the paper's mixed-precision setup.
	QuantizeBackbone bool
}

// Resolved fills zero fields exactly as Apply would for a model of the
// given width — exported so artifact manifests (internal/registry) record
// the options a session actually ran with.
func (o Options) Resolved(dim int) Options { return o.withDefaults(dim) }

// withDefaults fills zero fields.
func (o Options) withDefaults(dim int) Options {
	if o.LoRARank == 0 {
		o.LoRARank = 8
	}
	if o.LoRAAlpha == 0 {
		o.LoRAAlpha = 16
	}
	if o.Bottleneck == 0 {
		o.Bottleneck = min(64, max(4, dim/4))
	}
	if o.PromptTokens == 0 {
		o.PromptTokens = 16
	}
	return o
}

// Apply configures the model for the given method: freezes the backbone and
// injects/unfreezes the method's trainable set. It must be called once,
// before training, and returns the options actually used.
func Apply(m *nn.Transformer, method Method, opts Options, rng *tensor.RNG) Options {
	opts = opts.withDefaults(m.Cfg.Dim)
	ps := m.Params()

	switch method {
	case FullFT:
		for _, p := range ps {
			p.Frozen = false
		}

	case LoRA:
		ps.FreezeAll()
		for i, b := range m.Blocks {
			name := fmt.Sprintf("layer%d.attn", i)
			b.Attn.Wq.AddLoRA(name+".q_proj", opts.LoRARank, opts.LoRAAlpha, rng)
			b.Attn.Wv.AddLoRA(name+".v_proj", opts.LoRARank, opts.LoRAAlpha, rng)
			if opts.LoRAFreezeA {
				b.Attn.Wq.LoRAA.Frozen = true
				b.Attn.Wv.LoRAA.Frozen = true
			}
		}

	case Adapter:
		ps.FreezeAll()
		for i, b := range m.Blocks {
			b.AdptA = nn.NewAdapter(fmt.Sprintf("layer%d.adapter_attn", i), m.Cfg.Dim, opts.Bottleneck, rng)
			b.AdptM = nn.NewAdapter(fmt.Sprintf("layer%d.adapter_mlp", i), m.Cfg.Dim, opts.Bottleneck, rng)
		}

	case BitFit:
		ps.FreezeAll()
		for _, p := range ps {
			if strings.HasSuffix(p.Name, ".bias") || strings.HasSuffix(p.Name, ".beta") {
				p.Frozen = false
			}
		}

	case PTuning:
		ps.FreezeAll()
		m.EnablePrompt(opts.PromptTokens, rng)

	default:
		panic(fmt.Sprintf("peft: unknown method %v", method))
	}

	if opts.QuantizeBackbone {
		QuantizeFrozen(m)
	}
	return opts
}

// QuantizeFrozen rounds every frozen parameter through fp16 — the value a
// kernel reading half-precision storage would see. Trainable parameters
// stay full precision (the mixed-precision master copy).
func QuantizeFrozen(m *nn.Transformer) {
	for _, p := range m.Params() {
		if !p.Frozen {
			continue
		}
		for i, v := range p.W.Data {
			p.W.Data[i] = half.RoundTrip(v)
		}
	}
}

// Delta returns the detachable fine-tuned parameter set: every parameter
// the method injected (LoRA factors, bottleneck adapters, the prompt) plus
// every unfrozen backbone parameter. Injected-but-frozen parameters (the A
// matrix under LoRA-FA) are included — the artifact must carry the whole
// module, not just what the optimizer walked. This is what
// internal/registry publishes after a fine-tuning run.
func Delta(m *nn.Transformer) nn.ParamSet {
	var out nn.ParamSet
	for _, p := range m.Params() {
		if !p.Frozen || injectedParam(p.Name) {
			out = append(out, p)
		}
	}
	return out
}

// injectedParam reports whether a parameter name belongs to a PEFT-injected
// module rather than the backbone.
func injectedParam(name string) bool {
	return strings.Contains(name, ".lora_") ||
		strings.Contains(name, ".adapter_") ||
		name == "prompt"
}
