package nn

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"testing"

	"longexposure/internal/tensor"
)

func TestCheckpointRoundTrip(t *testing.T) {
	r := tensor.NewRNG(400)
	cfg := tinyConfig()
	m := NewTransformer(cfg, r)
	var buf bytes.Buffer
	if err := m.Params().Save(&buf); err != nil {
		t.Fatal(err)
	}

	// Fresh model with different weights; loading must restore function.
	m2 := NewTransformer(cfg, tensor.NewRNG(401))
	ids := [][]int{{1, 2, 3, 4}}
	ws := tensor.NewArena()
	before := m2.Forward(ids, nil, ws).Clone()
	if err := m2.Params().Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	after := m2.Forward(ids, nil, ws)
	orig := m.Forward(ids, nil, ws)
	if d := tensor.MaxAbsDiff(after, orig); d != 0 {
		t.Fatalf("restored model diverges: %v", d)
	}
	if d := tensor.MaxAbsDiff(before, after); d == 0 {
		t.Fatal("load was a no-op")
	}
}

func TestCheckpointBackboneIntoPEFTModel(t *testing.T) {
	r := tensor.NewRNG(402)
	cfg := tinyConfig()
	backbone := NewTransformer(cfg, r)
	var buf bytes.Buffer
	if err := backbone.Params().Save(&buf); err != nil {
		t.Fatal(err)
	}

	// Extended model: LoRA params exist in the model but not the
	// checkpoint — loading must succeed and leave them untouched.
	ext := NewTransformer(cfg, tensor.NewRNG(403))
	ext.Blocks[0].Attn.Wq.AddLoRA("layer0.attn.q_proj", 2, 4, tensor.NewRNG(404))
	loraBefore := ext.Blocks[0].Attn.Wq.LoRAA.W.Clone()
	if err := ext.Params().Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(loraBefore, ext.Blocks[0].Attn.Wq.LoRAA.W); d != 0 {
		t.Fatal("load touched LoRA params missing from checkpoint")
	}
	if d := tensor.MaxAbsDiff(ext.TokEmb.Table.W, backbone.TokEmb.Table.W); d != 0 {
		t.Fatal("backbone weights not restored")
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	m := NewTransformer(tinyConfig(), tensor.NewRNG(405))
	if err := m.Params().Load(strings.NewReader("NOPE....")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if err := m.Params().Load(strings.NewReader("")); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestCheckpointShapeMismatch(t *testing.T) {
	a := NewTransformer(tinyConfig(), tensor.NewRNG(406))
	var buf bytes.Buffer
	if err := a.Params().Save(&buf); err != nil {
		t.Fatal(err)
	}
	big := tinyConfig()
	big.Dim *= 2
	big.Hidden *= 2
	b := NewTransformer(big, tensor.NewRNG(407))
	if err := b.Params().Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestGenerateGreedyDeterministic(t *testing.T) {
	r := tensor.NewRNG(408)
	m := NewTransformer(tinyConfig(), r)
	a := m.Generate([]int{1, 2, 3}, GenerateConfig{MaxTokens: 5, StopToken: -1})
	b := m.Generate([]int{1, 2, 3}, GenerateConfig{MaxTokens: 5, StopToken: -1})
	if len(a) != 5 {
		t.Fatalf("generated %d tokens", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("greedy decoding nondeterministic")
		}
	}
}

func TestGenerateStopsAtStopToken(t *testing.T) {
	r := tensor.NewRNG(409)
	m := NewTransformer(tinyConfig(), r)
	out := m.Generate([]int{1}, GenerateConfig{MaxTokens: 20})
	// Force stop on the first emitted positive token (StopToken <= 0 means
	// disabled, so token 0 cannot be a stop).
	stopAt := -1
	for i, tok := range out {
		if tok > 0 {
			stopAt = i
			break
		}
	}
	if stopAt < 0 {
		t.Skip("greedy decode emitted only token 0")
	}
	out2 := m.Generate([]int{1}, GenerateConfig{MaxTokens: 20, StopToken: out[stopAt]})
	if len(out2) != stopAt+1 || out2[stopAt] != out[stopAt] {
		t.Fatalf("stop token ignored: %v (want stop after %d tokens)", out2, stopAt+1)
	}
}

func TestGenerateZeroValueConfigDoesNotStopOnToken0(t *testing.T) {
	// The footgun this pins: StopToken's zero value used to mean "stop on
	// token 0", so a default GenerateConfig silently truncated the first
	// time the argmax landed on the padding token. Force token 0 to win
	// every step and check a zero-value config decodes to MaxTokens.
	cfg := tinyConfig()
	cfg.MaxSeq = 32 // room for the prompt plus the full MaxTokens default
	m := NewTransformer(cfg, tensor.NewRNG(413))
	for _, p := range m.Params() {
		if p.Name == "lm_head.bias" {
			p.W.Data[0] = 100 // token 0 dominates every logit row
		}
	}
	out := m.Generate([]int{1}, GenerateConfig{})
	if len(out) != 16 {
		t.Fatalf("zero-value config emitted %d tokens, want the MaxTokens default 16", len(out))
	}
	for _, tok := range out {
		if tok != 0 {
			t.Fatalf("expected forced token 0, got %v", out)
		}
	}
}

func TestGenerateRespectsMaxSeq(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxSeq = 6
	m := NewTransformer(cfg, tensor.NewRNG(410))
	out := m.Generate([]int{1, 2, 3}, GenerateConfig{MaxTokens: 50, StopToken: -1})
	if len(out) > 3 { // 3 prompt + 3 generated = 6 = MaxSeq
		t.Fatalf("generated %d tokens past MaxSeq", len(out))
	}
}

func TestGenerateLearnedPattern(t *testing.T) {
	// Train a model to continue the repeating token pattern and check
	// greedy decoding reproduces it.
	r := tensor.NewRNG(411)
	cfg := Config{Name: "gen", Vocab: 8, Dim: 16, Layers: 1, Heads: 2, Hidden: 32, MaxSeq: 16, Act: ActReLU}
	m := NewTransformer(cfg, r)
	ids := [][]int{{2, 3, 2, 3, 2, 3, 2, 3}}
	targets := [][]int{{3, 2, 3, 2, 3, 2, 3, 2}}
	ps := m.Params()
	ws := tensor.NewArena()
	for i := 0; i < 120; i++ {
		logits := m.Forward(ids, nil, ws)
		_, dLogits := CrossEntropyIn(ws, logits, m.FlattenTargetsIn(ws, targets))
		ps.ZeroGrads()
		m.Backward(dLogits, ws)
		for _, p := range ps {
			tensor.AddScaledInto(p.W, p.Grad, -0.3)
		}
		ws.Release()
	}
	out := m.Generate([]int{2, 3, 2, 3}, GenerateConfig{MaxTokens: 4, StopToken: -1})
	want := []int{2, 3, 2, 3}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("generated %v, want %v", out, want)
		}
	}
}

func TestTemperatureSamplingVariesAndStaysInVocab(t *testing.T) {
	r := tensor.NewRNG(412)
	m := NewTransformer(tinyConfig(), r)
	seen := map[int]bool{}
	for trial := 0; trial < 8; trial++ {
		out := m.Generate([]int{1, 2}, GenerateConfig{
			MaxTokens: 3, Temperature: 2.0, StopToken: -1, RNG: tensor.NewRNG(uint64(500 + trial)),
		})
		for _, tok := range out {
			if tok < 0 || tok >= m.Cfg.Vocab {
				t.Fatalf("token %d outside vocab", tok)
			}
			seen[tok] = true
		}
	}
	if len(seen) < 2 {
		t.Fatal("high-temperature sampling produced a single token")
	}
}

// ckptHeader starts a checkpoint stream claiming count parameters.
func ckptHeader(count uint32) []byte {
	b := binary.LittleEndian.AppendUint32([]byte(ckptMagic), ckptVersion)
	return binary.LittleEndian.AppendUint32(b, count)
}

// ckptParam appends one parameter record's name and dims, without data.
func ckptParam(b []byte, name string, dims ...uint32) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(name)))
	b = append(b, name...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(dims)))
	for _, d := range dims {
		b = binary.LittleEndian.AppendUint32(b, d)
	}
	return b
}

// TestLoadRejectsCorruptStreams feeds both loaders headers that claim more
// than the stream holds: each must fail with an error, having allocated
// about what the stream holds rather than what its header claims.
func TestLoadRejectsCorruptStreams(t *testing.T) {
	loadParams := func(b []byte) error {
		_, err := LoadParams(bytes.NewReader(b))
		return err
	}
	loadModel := func(b []byte) error {
		return NewTransformer(tinyConfig(), tensor.NewRNG(409)).Params().Load(bytes.NewReader(b))
	}
	for _, tc := range []struct {
		name   string
		load   func([]byte) error
		stream []byte
		want   string
	}{
		{"count beyond stream", loadParams, ckptHeader(0xFFFFFFFF), "EOF"},
		{"dims overflow", loadParams, ckptParam(ckptHeader(1), "w", 65536, 65536, 65536, 65536), "overflows"},
		{"shape beyond stream", loadParams, append(ckptParam(ckptHeader(1), "w", 1<<16, 1<<12), 1, 2, 3, 4), "EOF"},
		{"dims overflow into model", loadModel, ckptParam(ckptHeader(1), "lm_head.weight", 65536, 65536, 65536, 65536), "overflows"},
		{"shape mismatch before data", loadModel, ckptParam(ckptHeader(1), "lm_head.weight", 1<<16, 1<<10), "shape mismatch"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.load(tc.stream)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Fatalf("%s: allocated %d bytes for a %d-byte stream", tc.name, grew, len(tc.stream))
		}
	}
}

// FuzzLoadParams: on any stream, LoadParams either returns an error or
// parameters whose weight and gradient lengths match their shapes — it
// never panics.
func FuzzLoadParams(f *testing.F) {
	m := NewTransformer(Config{Name: "fuzz", Vocab: 5, Dim: 4, Layers: 1, Heads: 1, Hidden: 4, MaxSeq: 4}, tensor.NewRNG(410))
	var buf bytes.Buffer
	if err := m.Params().Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])
	f.Add(ckptHeader(0xFFFFFFFF))
	f.Add(ckptParam(ckptHeader(1), "w", 65536, 65536, 65536, 65536))
	f.Fuzz(func(t *testing.T, b []byte) {
		ps, err := LoadParams(bytes.NewReader(b))
		if err != nil {
			return
		}
		for _, p := range ps {
			n := 1
			for _, d := range p.W.Shape() {
				if d != 0 && n > math.MaxInt/d {
					t.Fatalf("%s: shape %v overflows", p.Name, p.W.Shape())
				}
				n *= d
			}
			if p.W.Len() != n || p.Grad.Len() != n {
				t.Fatalf("%s: shape %v holds %d weights, %d grads", p.Name, p.W.Shape(), p.W.Len(), p.Grad.Len())
			}
		}
	})
}
