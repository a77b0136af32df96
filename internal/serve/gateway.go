package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"longexposure/internal/account"
	"longexposure/internal/infer"
	"longexposure/internal/jobs"
	"longexposure/internal/nn"
	"longexposure/internal/obs"
	"longexposure/internal/predictor"
	"longexposure/internal/registry"
)

// maxEngines bounds how many distinct base models the gateway keeps in
// memory. Registry-published adapters funnel into very few bases (equal
// BaseDesc → equal hash → shared engine); the cap exists because
// /v1/generate also accepts client-supplied base descriptions, which must
// not be able to grow models and scheduler goroutines without bound.
const maxEngines = 8

// gateway is the inference half of the API: the adapter registry plus a
// lazily-built infer.Engine per distinct base description (adapters that
// share a BaseHash share one engine — one frozen base model in memory,
// however many adapters are served from it), and a compiled-adapter cache
// keyed by artifact id — artifacts are immutable and content-addressed,
// so a compile is valid until the artifact is deleted.
type gateway struct {
	reg      *registry.Store
	maxBatch int

	// Wired by serve.New (no-op handles without WithMetrics).
	metrics      *obs.GatewayMetrics
	inferMetrics *obs.InferMetrics    // shared by every engine built here
	sparsity     *obs.SparsityMetrics // serving-density gauges, shared by every planner
	// Wired by serve.New when WithAccounting is set: every engine built
	// here emits one wide event per retired sequence into the plane.
	account *account.Plane

	mu        sync.Mutex
	engines   map[string]*infer.Engine     // by BaseDesc.Hash()
	compiled  map[string]*nn.DecodeAdapter // by artifact id
	baseBytes map[string]float64           // resident weight bytes by precision (gauge mirror)
}

func newGateway(reg *registry.Store, maxBatch int) *gateway {
	return &gateway{
		reg:       reg,
		maxBatch:  maxBatch,
		engines:   map[string]*infer.Engine{},
		compiled:  map[string]*nn.DecodeAdapter{},
		baseBytes: map[string]float64{},
	}
}

// engineFor returns (building if needed) the engine serving a base.
func (g *gateway) engineFor(desc registry.BaseDesc) (*infer.Engine, error) {
	key := desc.Hash()
	g.mu.Lock()
	defer g.mu.Unlock()
	if eng, ok := g.engines[key]; ok {
		return eng, nil
	}
	if len(g.engines) >= maxEngines {
		return nil, fmt.Errorf("serve: engine cache full (%d distinct bases); delete adapters or restart to serve new bases", maxEngines)
	}
	base, err := jobs.BuildBase(desc)
	if err != nil {
		return nil, err
	}
	// Every f32 engine gets a serving planner: contextual sparsity is then
	// a per-request decision (decode.sparsity.mode), not a deployment one.
	// Compressed bases (f16/int8/nm24) serve dense — the planner reads the
	// f32 MLP weights Compress freed, and the sparse kernels do too.
	var planner *predictor.ServingPlanner
	if !nn.CompressedPrecision(desc.Precision) {
		planner = predictor.NewServingPlanner(base, nil, predictor.ServingConfig{Metrics: g.sparsity})
	}
	eng := infer.New(base, infer.Config{MaxBatch: g.maxBatch, Metrics: g.inferMetrics, Planner: planner, Account: g.account})
	g.engines[key] = eng
	g.metrics.Engines.Set(float64(len(g.engines)))
	prec := desc.Precision
	if prec == "" {
		prec = nn.PrecisionF32
	}
	g.baseBytes[prec] += float64(base.WeightBytes())
	g.metrics.BaseWeightBytes.With(prec).Set(g.baseBytes[prec])
	return eng, nil
}

// adapterFor loads and compiles an artifact, serving repeats from the
// compiled cache (no disk read on the hot path).
func (g *gateway) adapterFor(id string) (registry.Manifest, *nn.DecodeAdapter, error) {
	man, ok := g.reg.Get(id)
	if !ok {
		return registry.Manifest{}, nil, fmt.Errorf("registry: unknown adapter %q", id)
	}
	g.mu.Lock()
	ad, hit := g.compiled[id]
	g.mu.Unlock()
	if hit {
		g.metrics.AdapterHits.Inc()
		return man, ad, nil
	}
	g.metrics.AdapterMisses.Inc()
	man, params, err := g.reg.Load(id)
	if err != nil {
		return registry.Manifest{}, nil, err
	}
	eng, err := g.engineFor(man.Base)
	if err != nil {
		return registry.Manifest{}, nil, err
	}
	ad, err = infer.Compile(man.Method, man.Rank, man.Alpha, eng.Base().Cfg, params)
	if err != nil {
		return registry.Manifest{}, nil, err
	}
	g.mu.Lock()
	g.compiled[id] = ad
	g.mu.Unlock()
	return man, ad, nil
}

// evict drops an artifact's compiled form (on delete).
func (g *gateway) evict(id string) {
	g.mu.Lock()
	_, present := g.compiled[id]
	delete(g.compiled, id)
	g.mu.Unlock()
	if present {
		g.metrics.AdapterEvictions.Inc()
	}
}

// close shuts every engine down.
func (g *gateway) close() {
	g.mu.Lock()
	engines := g.engines
	g.engines = map[string]*infer.Engine{}
	g.compiled = map[string]*nn.DecodeAdapter{}
	resident := g.baseBytes
	g.baseBytes = map[string]float64{}
	g.mu.Unlock()
	for _, eng := range engines {
		eng.Close()
	}
	g.metrics.Engines.Set(0)
	for prec := range resident {
		g.metrics.BaseWeightBytes.With(prec).Set(0)
	}
}

// ---- handlers ----

func (s *Server) listAdapters(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.gw.reg.List())
}

func (s *Server) getAdapter(w http.ResponseWriter, r *http.Request) {
	man, ok := s.gw.reg.Get(r.PathValue("id"))
	if !ok {
		writeError(w, r, http.StatusNotFound, "unknown adapter %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, man)
}

func (s *Server) deleteAdapter(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.gw.reg.Delete(id); err != nil {
		writeError(w, r, http.StatusNotFound, "%v", err)
		return
	}
	s.gw.evict(id)
	writeJSON(w, http.StatusOK, struct {
		Deleted string `json:"deleted"`
	}{id})
}

// samplingOptions is the decode.sampling block of a generate request.
type samplingOptions struct {
	Temperature float64 `json:"temperature,omitempty"`
	MaxTokens   int     `json:"max_tokens,omitempty"`
	StopToken   int     `json:"stop_token,omitempty"`
	Seed        uint64  `json:"seed,omitempty"`
}

// decodeOptions is the structured per-request decode configuration: how
// to sample and whether to decode sparsely. The zero value (or an absent
// block) reproduces the default dense greedy decode exactly.
type decodeOptions struct {
	Sampling *samplingOptions    `json:"sampling,omitempty"`
	Sparsity *nn.SparsityOptions `json:"sparsity,omitempty"`
}

// generateRequest is the POST /v1/generate body. Exactly one of Adapter
// (a registry id) or Base (an explicit base description, served without a
// delta) selects the model. Sampling parameters live under Decode; the
// old flat top-level fields are REMOVED — they stay in the struct only so
// a request still sending one gets a targeted 400 naming its
// decode.sampling replacement instead of a generic unknown-field error.
type generateRequest struct {
	Adapter string             `json:"adapter,omitempty"`
	Base    *registry.BaseDesc `json:"base,omitempty"`

	Prompt []int          `json:"prompt"`
	Decode *decodeOptions `json:"decode,omitempty"`

	// Removed flat sampling fields (see struct comment).
	MaxTokens   int     `json:"max_tokens,omitempty"`
	Temperature float64 `json:"temperature,omitempty"`
	StopToken   int     `json:"stop_token,omitempty"`
	Seed        uint64  `json:"seed,omitempty"`
}

// resolveDecode validates the structured decode block and rejects any use
// of the removed flat sampling fields, naming the replacement field.
func (req *generateRequest) resolveDecode() (samplingOptions, nn.SparsityOptions, error) {
	for _, f := range []struct {
		set  bool
		name string
	}{
		{req.MaxTokens != 0, "max_tokens"},
		{req.Temperature != 0, "temperature"},
		{req.StopToken != 0, "stop_token"},
		{req.Seed != 0, "seed"},
	} {
		if f.set {
			return samplingOptions{}, nn.SparsityOptions{},
				fmt.Errorf("flat field %q has been removed; set decode.sampling.%s instead", f.name, f.name)
		}
	}
	var sampling samplingOptions
	var sparsity nn.SparsityOptions
	if req.Decode != nil {
		if req.Decode.Sampling != nil {
			sampling = *req.Decode.Sampling
		}
		if req.Decode.Sparsity != nil {
			sparsity = *req.Decode.Sparsity
		}
	}
	if err := sparsity.Validate("decode.sparsity"); err != nil {
		return samplingOptions{}, nn.SparsityOptions{}, err
	}
	return sampling, sparsity, nil
}

// generate serves POST /v1/generate as a server-sent event stream: one
// "token" frame per emitted token, then a terminal "done" frame with the
// finish reason and the full token list (or an "error" frame).
func (s *Server) generate(w http.ResponseWriter, r *http.Request) {
	release, verdict, ok := s.gdGenerate.admit(w, r)
	if !ok {
		s.accountShed(r, account.KindGenerate, "POST /v1/generate", verdict)
		return
	}
	defer release()
	var req generateRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, r, http.StatusBadRequest, "decoding generate request: %v", err)
		return
	}
	sampling, sparsity, err := req.resolveDecode()
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}

	var (
		desc    registry.BaseDesc
		adapter *nn.DecodeAdapter
	)
	switch {
	case req.Adapter != "" && req.Base != nil:
		writeError(w, r, http.StatusBadRequest, "set adapter or base, not both")
		return
	case req.Adapter != "":
		man, ad, err := s.gw.adapterFor(req.Adapter)
		switch {
		case err != nil && !s.gw.reg.Has(req.Adapter):
			writeError(w, r, http.StatusNotFound, "%v", err)
			return
		case errors.Is(err, infer.ErrNotServable):
			writeError(w, r, http.StatusUnprocessableEntity, "%v", err)
			return
		case err != nil:
			// The artifact exists but could not be served (load, base
			// rebuild, or compile failure) — a server-side condition.
			writeError(w, r, http.StatusInternalServerError, "%v", err)
			return
		}
		adapter, desc = ad, man.Base
	case req.Base != nil:
		desc = *req.Base
	default:
		writeError(w, r, http.StatusBadRequest, "a generate request needs an adapter id or a base description")
		return
	}
	if sparsity.Enabled() && nn.CompressedPrecision(desc.Precision) {
		writeError(w, r, http.StatusBadRequest,
			"decode.sparsity.mode %q is unavailable on a %s-precision base: compressed bases serve dense", sparsity.Mode, desc.Precision)
		return
	}

	eng, err := s.gw.engineFor(desc)
	if err != nil {
		// For adapter requests the engine already exists (adapterFor built
		// it); reaching here means a client-supplied base was rejected.
		writeError(w, r, http.StatusBadRequest, "building base: %v", err)
		return
	}
	stream, err := eng.Generate(r.Context(), infer.Request{
		Prompt:       req.Prompt,
		MaxTokens:    sampling.MaxTokens,
		Temperature:  sampling.Temperature,
		StopToken:    sampling.StopToken,
		Seed:         sampling.Seed,
		Sparsity:     sparsity,
		Adapter:      adapter,
		AdapterID:    req.Adapter,
		Tenant:       s.tenantOf(r),
		Route:        "POST /v1/generate",
		LimitVerdict: verdict,
	})
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}

	var tokens []int
	streamSSE(s, w, r, stream.Events, nil, func(ev infer.Event) (string, string, any, bool) {
		switch {
		case ev.Err != nil:
			return "error", "", struct {
				Error  string `json:"error"`
				Reason string `json:"reason,omitempty"`
			}{ev.Err.Error(), ev.Reason}, true
		case ev.Done:
			return "done", "", struct {
				Tokens  []int  `json:"tokens"`
				Reason  string `json:"reason"`
				Adapter string `json:"adapter,omitempty"`
			}{tokens, ev.Reason, req.Adapter}, true
		default:
			tokens = append(tokens, ev.Token)
			return "token", "", struct {
				Token int `json:"token"`
				Index int `json:"index"`
			}{ev.Token, ev.Index}, false
		}
	})
}

// shutdownGateway is called from Server.Shutdown.
func (s *Server) shutdownGateway(context.Context) {
	if s.gw != nil {
		s.gw.close()
	}
}
