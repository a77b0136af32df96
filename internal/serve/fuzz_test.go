package serve

import (
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzResolveDecode feeds arbitrary /v1/generate bodies through the
// handler's decode path: decodeBody, then resolveDecode. Neither may
// panic, and any sparsity options resolveDecode accepts must pass
// SparsityOptions.Validate with both densities in [0, 1].
func FuzzResolveDecode(f *testing.F) {
	for _, seed := range []string{
		`{"base":{"model":"sim-small"},"prompt":[5,6,7]}`,
		`{"adapter":"a1","prompt":[1],"decode":{"sampling":{"max_tokens":6,"temperature":0.7,"seed":9}}}`,
		`{"prompt":[5],"decode":{"sparsity":{"mode":"forced","mlp_density":0.5,"attn_density":1}}}`,
		`{"prompt":[5],"decode":{"sparsity":{"mode":"auto","mlp_density":1.5}}}`,
		`{"prompt":[5],"decode":{"sparsity":{"mlp_density":0.5}}}`,
		`{"prompt":[5],"max_tokens":4}`,
		`{"prompt":[5],"decode":{"sparsity":null,"sampling":null}}`,
		`{"prompt":[5],"decode":{"sparsity":{"mode":"auto","mlp_density":-0}}}`,
		`{"prompt":[5],"decode":{"sparsity":{"mode":"auto","attn_density":1e-400}}}`,
		`{"sapling":{}}`,
		`[]`,
		``,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		var req generateRequest
		r := httptest.NewRequest("POST", "/v1/generate", strings.NewReader(body))
		if !decodeBody(httptest.NewRecorder(), r, &req, "generate request") {
			return
		}
		_, sparsity, err := req.resolveDecode()
		if err != nil {
			return
		}
		if err := sparsity.Validate("decode.sparsity"); err != nil {
			t.Fatalf("resolveDecode accepted %+v, which Validate rejects: %v", sparsity, err)
		}
		for _, d := range []float64{sparsity.MLPDensity, sparsity.AttnDensity} {
			if !(d >= 0 && d <= 1) {
				t.Fatalf("resolveDecode accepted density %v outside [0, 1] in %+v", d, sparsity)
			}
		}
	})
}
