package main

import (
	"encoding/json"
	"math/rand/v2"

	"longexposure/internal/data"
)

// Prompt lengths of the serve traffic. Prompts come from a small pool so
// that every (adapter, prompt) pair's reference output is computed once.
var promptLens = []int{8, 16, 24, 32}

const promptsPerLen = 4

// requestGen produces the serve workloads' requests. It is a pure function
// of the seed: the daemon sees only the generated bodies.
type requestGen struct {
	seed uint64
	pool [][]int
}

func newRequestGen(seed uint64, vocab int) *requestGen {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	g := &requestGen{seed: seed}
	for _, n := range promptLens {
		for range promptsPerLen {
			p := make([]int, n)
			for i := range p {
				p[i] = data.TokBase + rng.IntN(vocab-data.TokBase)
			}
			g.pool = append(g.pool, p)
		}
	}
	return g
}

// pick chooses the j-th request of a client: adapters alternate per
// request, the prompt is drawn from the pool.
func (g *requestGen) pick(client, j, adapters int) (adapter, prompt int) {
	rng := rand.New(rand.NewPCG(g.seed, uint64(client)<<32|uint64(j)))
	return (client + j) % adapters, rng.IntN(len(g.pool))
}

type samplingBody struct {
	MaxTokens int `json:"max_tokens"`
}

type sparsityBody struct {
	Mode string `json:"mode"`
}

type decodeBody struct {
	Sampling samplingBody  `json:"sampling"`
	Sparsity *sparsityBody `json:"sparsity,omitempty"`
}

type generateBody struct {
	Adapter string     `json:"adapter"`
	Prompt  []int      `json:"prompt"`
	Decode  decodeBody `json:"decode"`
}

// body renders a POST /v1/generate request: greedy, no stop token, so the
// reply is exactly maxTokens tokens.
func (g *requestGen) body(adapterID string, prompt int, sparsity string) []byte {
	b := generateBody{Adapter: adapterID, Prompt: g.pool[prompt], Decode: decodeBody{Sampling: samplingBody{maxTokens}}}
	if sparsity != "" {
		b.Decode.Sparsity = &sparsityBody{sparsity}
	}
	out, err := json.Marshal(b)
	if err != nil {
		panic(err) // plain data; cannot fail
	}
	return out
}
