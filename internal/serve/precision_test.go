package serve_test

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// int8Base is simSmallBase published at int8 storage precision.
func int8Base() map[string]any {
	b := simSmallBase()
	b["precision"] = "int8"
	return b
}

// TestGenerateCompressedBase serves an int8 frozen base end to end: the
// decode stream completes, the resident-weight gauge reports the quantized
// footprint (strictly below the f32 base's), and a contextual-sparsity
// request against the compressed base streams like one on an f32 base —
// the MLP's neuron-block kernels read row ranges of the packed weights.
func TestGenerateCompressedBase(t *testing.T) {
	e, obsReg := newObsGatewayEnv(t, 1, 2, nil)

	req := func(base map[string]any) map[string]any {
		return map[string]any{
			"base": base, "prompt": []int{5, 6, 7},
			"decode": map[string]any{"sampling": map[string]any{"max_tokens": 6}},
		}
	}
	dense, reason := e.generateSSE(req(simSmallBase()))
	if reason != "length" || len(dense) != 6 {
		t.Fatalf("f32 decode: %v (%s)", dense, reason)
	}
	quant, reason := e.generateSSE(req(int8Base()))
	if reason != "length" || len(quant) != 6 {
		t.Fatalf("int8 decode: %v (%s)", quant, reason)
	}

	f32Bytes := metricValue(obsReg, "lexp_base_weight_bytes", "f32")
	i8Bytes := metricValue(obsReg, "lexp_base_weight_bytes", "int8")
	if f32Bytes <= 0 || i8Bytes <= 0 {
		t.Fatalf("lexp_base_weight_bytes not populated: f32=%v int8=%v", f32Bytes, i8Bytes)
	}
	if i8Bytes >= f32Bytes/2 {
		t.Fatalf("int8 base not compressed: %v bytes vs f32 %v", i8Bytes, f32Bytes)
	}

	sparseReq := req(int8Base())
	sparseReq["decode"].(map[string]any)["sparsity"] = map[string]any{"mode": "forced", "mlp_density": 0.5}
	sparse, reason := e.generateSSE(sparseReq)
	if reason != "length" || len(sparse) != 6 {
		t.Fatalf("sparse int8 decode: %v (%s)", sparse, reason)
	}
	if steps := metricValue(obsReg, "lexp_infer_sparse_steps_total"); steps == 0 {
		t.Fatal("lexp_infer_sparse_steps_total did not count the int8 base's planned steps")
	}

	// An unknown precision in a client-supplied base is rejected, not built.
	bad := simSmallBase()
	bad["precision"] = "f4"
	badBody, _ := json.Marshal(map[string]any{"base": bad, "prompt": []int{5}})
	if resp, _, msg := postGenerate(t, e.ts.URL, string(badBody)); resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, "f4") {
		t.Fatalf("unknown precision: %d %q, want 400 naming it", resp.StatusCode, msg)
	}
}
