// Package infer is the generation engine behind the inference gateway: it
// compiles registry adapter artifacts into the functional decode weights
// nn.DecodeBatch consumes, and schedules generation requests over one
// shared frozen base with continuous batching — sequences are admitted and
// retired every decode step, and each step is one stacked nn.DecodeBatch
// pass on the scheduler goroutine, in which every sequence carries its own
// KV cache, adapter and plan. Requests for different adapters share each
// pass over the base without touching its weights.
package infer

import (
	"errors"
	"fmt"
	"regexp"
	"strconv"

	"longexposure/internal/nn"
)

// ErrNotServable rejects adapter methods that cannot be applied
// functionally over a shared frozen base: full fine-tuning and BitFit
// mutate the backbone itself, so their artifacts describe a different
// base, not a detachable delta.
var ErrNotServable = errors.New("infer: method not servable on a shared base (only lora, adapter and ptuning attach functionally)")

var (
	loraRe       = regexp.MustCompile(`^layer(\d+)\.attn\.(q|v)_proj\.lora_(A|B)$`)
	bottleneckRe = regexp.MustCompile(`^layer(\d+)\.adapter_(attn|mlp)\.(down|up)\.(weight|bias)$`)
)

// Compile turns an artifact's parameter set into the decode-time adapter
// for a base with the given config. method is the manifest's method key;
// rank/alpha size the LoRA scale. Every parameter must be recognized and
// shape-consistent — a partial artifact must fail here, not decode wrong.
func Compile(method string, rank int, alpha float64, cfg nn.Config, params nn.ParamSet) (*nn.DecodeAdapter, error) {
	switch method {
	case "lora":
		return compileLoRA(rank, alpha, cfg, params)
	case "adapter":
		return compileBottleneck(cfg, params)
	case "ptuning":
		return compilePrompt(cfg, params)
	case "full", "bitfit":
		return nil, fmt.Errorf("%w: %q", ErrNotServable, method)
	default:
		return nil, fmt.Errorf("infer: unknown adapter method %q", method)
	}
}

func layerIndex(s string, cfg nn.Config) (int, error) {
	li, err := strconv.Atoi(s)
	if err != nil || li < 0 || li >= cfg.Layers {
		return 0, fmt.Errorf("infer: layer index %q outside model of %d layers", s, cfg.Layers)
	}
	return li, nil
}

func compileLoRA(rank int, alpha float64, cfg nn.Config, params nn.ParamSet) (*nn.DecodeAdapter, error) {
	if rank <= 0 {
		return nil, fmt.Errorf("infer: lora artifact with rank %d", rank)
	}
	scale := float32(alpha / float64(rank))
	ad := &nn.DecodeAdapter{Layers: make([]nn.LayerAdapter, cfg.Layers)}
	pair := func(li int, proj string) **nn.LoRAPair {
		if proj == "q" {
			return &ad.Layers[li].Q
		}
		return &ad.Layers[li].V
	}
	for _, p := range params {
		m := loraRe.FindStringSubmatch(p.Name)
		if m == nil {
			return nil, fmt.Errorf("infer: unexpected parameter %q in lora artifact", p.Name)
		}
		li, err := layerIndex(m[1], cfg)
		if err != nil {
			return nil, err
		}
		lp := pair(li, m[2])
		if *lp == nil {
			*lp = &nn.LoRAPair{Scale: scale}
		}
		switch m[3] {
		case "A":
			if p.W.Dim(0) != cfg.Dim || p.W.Dim(1) != rank {
				return nil, fmt.Errorf("infer: %s shape %v, want [%d %d]", p.Name, p.W.Shape(), cfg.Dim, rank)
			}
			(*lp).A = p.W
		case "B":
			if p.W.Dim(0) != rank || p.W.Dim(1) != cfg.Dim {
				return nil, fmt.Errorf("infer: %s shape %v, want [%d %d]", p.Name, p.W.Shape(), rank, cfg.Dim)
			}
			(*lp).B = p.W
		}
	}
	for li := range ad.Layers {
		for _, lp := range []*nn.LoRAPair{ad.Layers[li].Q, ad.Layers[li].V} {
			if lp != nil && (lp.A == nil || lp.B == nil) {
				return nil, fmt.Errorf("infer: layer %d lora pair missing A or B", li)
			}
		}
	}
	return ad, nil
}

func compileBottleneck(cfg nn.Config, params nn.ParamSet) (*nn.DecodeAdapter, error) {
	ad := &nn.DecodeAdapter{Layers: make([]nn.LayerAdapter, cfg.Layers)}
	slot := func(li int, where string) **nn.BottleneckWeights {
		if where == "attn" {
			return &ad.Layers[li].AttnScaled
		}
		return &ad.Layers[li].MLPScaled
	}
	for _, p := range params {
		m := bottleneckRe.FindStringSubmatch(p.Name)
		if m == nil {
			return nil, fmt.Errorf("infer: unexpected parameter %q in adapter artifact", p.Name)
		}
		li, err := layerIndex(m[1], cfg)
		if err != nil {
			return nil, err
		}
		bw := slot(li, m[2])
		if *bw == nil {
			*bw = &nn.BottleneckWeights{}
		}
		switch m[3] + "." + m[4] {
		case "down.weight":
			(*bw).DownW = p.W
		case "down.bias":
			(*bw).DownB = p.W
		case "up.weight":
			(*bw).UpW = p.W
		case "up.bias":
			(*bw).UpB = p.W
		}
	}
	for li := range ad.Layers {
		for _, bw := range []*nn.BottleneckWeights{ad.Layers[li].AttnScaled, ad.Layers[li].MLPScaled} {
			if bw == nil {
				continue
			}
			if bw.DownW == nil || bw.DownB == nil || bw.UpW == nil || bw.UpB == nil {
				return nil, fmt.Errorf("infer: layer %d bottleneck incomplete", li)
			}
			if bw.DownW.Dim(0) != cfg.Dim || bw.UpW.Dim(1) != cfg.Dim || bw.DownW.Dim(1) != bw.UpW.Dim(0) {
				return nil, fmt.Errorf("infer: layer %d bottleneck shapes %v/%v inconsistent with dim %d",
					li, bw.DownW.Shape(), bw.UpW.Shape(), cfg.Dim)
			}
			if bw.DownB.Len() != bw.DownW.Dim(1) || bw.UpB.Len() != cfg.Dim {
				return nil, fmt.Errorf("infer: layer %d bottleneck bias lengths %d/%d inconsistent with shapes %v/%v",
					li, bw.DownB.Len(), bw.UpB.Len(), bw.DownW.Shape(), bw.UpW.Shape())
			}
		}
	}
	return ad, nil
}

func compilePrompt(cfg nn.Config, params nn.ParamSet) (*nn.DecodeAdapter, error) {
	if len(params) != 1 || params[0].Name != "prompt" {
		return nil, fmt.Errorf("infer: ptuning artifact must contain exactly the prompt parameter")
	}
	p := params[0].W
	if p.Rank() != 2 || p.Dim(1) != cfg.Dim || p.Dim(0) <= 0 || p.Dim(0) >= cfg.MaxSeq {
		return nil, fmt.Errorf("infer: prompt shape %v inconsistent with dim %d / MaxSeq %d", p.Shape(), cfg.Dim, cfg.MaxSeq)
	}
	return &nn.DecodeAdapter{Prompt: p}, nil
}
