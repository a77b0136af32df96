// Package data provides the synthetic workloads standing in for the paper's
// datasets: an E2E-style slot-to-text generation corpus (performance
// evaluation), an Alpaca-style instruction corpus (accuracy fine-tuning),
// and five downstream classification tasks mirroring Table III. Every
// generator is seeded and deterministic.
//
// Substitution note: the real datasets gate on tokenizers and
// downloads that an offline pure-Go build cannot reproduce; what the
// experiments actually need is (a) realistic token streams to drive sparsity
// measurements and (b) learnable task structure so sparse-vs-dense accuracy
// can be compared. These generators provide exactly that.
package data

import "longexposure/internal/nn"

// Reserved token ids. Generators only emit ids ≥ TokBase for content.
const (
	TokPad = 0
	TokBOS = 1
	TokSep = 2
	TokEOS = 3
	// TokNo / TokYes are the binary-classification answer tokens.
	TokNo  = 4
	TokYes = 5
	// TokChoiceBase starts the multiple-choice answer tokens (4 choices).
	TokChoiceBase = 6
	// TokBase is the first free content token.
	TokBase = 10
)

// Example is one training or evaluation item: equal-length input and target
// token rows. Target positions carrying nn.IgnoreIndex (prompt and padding)
// do not contribute to the loss. Label is the class index for
// classification tasks (-1 for pure LM examples).
type Example struct {
	Input  []int
	Target []int
	Label  int
	// Choices lists the answer-token candidates for classification
	// examples (nil for LM examples). Evaluation restricts argmax to them.
	Choices []int
	// AnswerPos is the target position holding the answer token (-1 for LM).
	AnswerPos int
}

// Batch groups examples into the [][]int form the model consumes.
type Batch struct {
	Inputs  [][]int
	Targets [][]int
	// Examples retains the originals for evaluation metadata.
	Examples []Example
}

// PadTo right-pads input/target to length s (input with TokPad, target with
// IgnoreIndex). Rows longer than s are truncated.
func PadTo(e Example, s int) Example {
	in := make([]int, s)
	tg := make([]int, s)
	for i := range tg {
		tg[i] = nn.IgnoreIndex
	}
	n := min(len(e.Input), s)
	copy(in, e.Input[:n])
	copy(tg, e.Target[:min(len(e.Target), s)])
	out := e
	out.Input, out.Target = in, tg
	return out
}

// Batches packs examples into fixed-shape batches of the given size and
// sequence length, dropping the ragged tail.
func Batches(examples []Example, batchSize, seqLen int) []Batch {
	var out []Batch
	for start := 0; start+batchSize <= len(examples); start += batchSize {
		b := Batch{}
		for _, e := range examples[start : start+batchSize] {
			p := PadTo(e, seqLen)
			b.Inputs = append(b.Inputs, p.Input)
			b.Targets = append(b.Targets, p.Target)
			b.Examples = append(b.Examples, p)
		}
		out = append(out, b)
	}
	return out
}

// lmExample builds a next-token-prediction example from a prompt and a
// completion: the model sees prompt+completion and is supervised only on
// the completion region (standard instruction-tuning masking).
func lmExample(prompt, completion []int) Example {
	seq := make([]int, 0, len(prompt)+len(completion)+1)
	seq = append(seq, TokBOS)
	seq = append(seq, prompt...)
	seq = append(seq, completion...)

	input := seq[:len(seq)-1]
	target := make([]int, len(input))
	for i := range target {
		target[i] = nn.IgnoreIndex
	}
	// Supervise positions whose *next* token is in the completion.
	compStart := 1 + len(prompt) // index in seq where completion begins
	for i := compStart - 1; i < len(input); i++ {
		target[i] = seq[i+1]
	}
	return Example{Input: input, Target: target, Label: -1, AnswerPos: -1}
}
