// Package registry is the adapter artifact store closing the loop between
// fine-tuning and serving: a completed PEFT run's trainable delta (see
// peft.Delta) is serialized with the repository's LEXP checkpoint format
// next to a JSON manifest describing the method, its hyper-parameters and
// the exact frozen base it was trained against. Artifacts are
// content-addressed — the ID is a hash of the weight bytes plus the
// manifest core — so republishing identical work is idempotent and an
// artifact can never silently drift from its ID.
//
// The store is disk-backed (two files per artifact: <id>.lexp weights,
// <id>.json manifest) with an in-memory index rebuilt on Open, and safe
// for concurrent use. internal/jobs publishes into it; internal/serve and
// internal/infer read from it.
package registry

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"longexposure/internal/durable"
	"longexposure/internal/nn"
	"longexposure/internal/obs"
)

// BaseDesc identifies the frozen base model an adapter was trained on —
// everything needed to rebuild it bit-for-bit (see jobs.BuildBase): the
// model-zoo name, activation, the construction seed, and the sparsity
// priming parameters.
type BaseDesc struct {
	Model      string `json:"model"`
	Activation string `json:"activation"`
	Seed       uint64 `json:"seed"`
	Blk        int    `json:"blk"`
	Prime      bool   `json:"prime"`

	// Precision selects the frozen base's weight storage at publish time
	// ("", "f32", "f16", "int8", "nm24" — see nn.ValidPrecision). It is
	// part of the content hash: an int8 base is a different serving
	// artifact than the f32 base it was quantized from. Empty (the f32
	// default) is omitted from the JSON, so descriptors and hashes from
	// before the field existed are unchanged.
	Precision string `json:"precision,omitempty"`
}

// Hash returns the content key of the base description. Adapters sharing a
// BaseHash are servable on one shared base model.
func (b BaseDesc) Hash() string {
	j, err := json.Marshal(b)
	if err != nil {
		panic(fmt.Sprintf("registry: hashing base desc: %v", err))
	}
	sum := sha256.Sum256(j)
	return hex.EncodeToString(sum[:8])
}

// ParamInfo describes one artifact parameter (for listings; the weights
// themselves live in the .lexp file).
type ParamInfo struct {
	Name  string `json:"name"`
	Shape []int  `json:"shape"`
}

// Manifest is the artifact metadata stored next to the weights.
type Manifest struct {
	ID       string    `json:"id"`
	Name     string    `json:"name"`
	Method   string    `json:"method"` // peft.Method.Key()
	Base     BaseDesc  `json:"base"`
	BaseHash string    `json:"base_hash"`
	Created  time.Time `json:"created"`

	// Resolved PEFT options of the producing run (method-dependent).
	Rank         int     `json:"rank,omitempty"`
	Alpha        float64 `json:"alpha,omitempty"`
	PromptTokens int     `json:"prompt_tokens,omitempty"`
	Bottleneck   int     `json:"bottleneck,omitempty"`

	Params      []ParamInfo `json:"params"`
	WeightBytes int64       `json:"weight_bytes"`
}

// Spec is a publish request: the manifest fields the caller knows; ID,
// BaseHash, Created, Params and WeightBytes are derived.
type Spec struct {
	Name         string
	Method       string
	Base         BaseDesc
	Rank         int
	Alpha        float64
	PromptTokens int
	Bottleneck   int
}

// Store is the disk-backed adapter registry.
type Store struct {
	dir string

	mu      sync.RWMutex
	index   map[string]*Manifest
	metrics *obs.RegistryMetrics // no-op handles until Instrument
}

// Instrument attaches registry observability: artifact count plus
// publish/load/delete traffic. Call once, before the store is shared.
func (s *Store) Instrument(m *obs.RegistryMetrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics = m
	m.Adapters.Set(float64(len(s.index)))
}

// Open creates/loads a registry at dir, rebuilding the index from the
// manifests on disk.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: creating %s: %w", dir, err)
	}
	s := &Store{dir: dir, index: map[string]*Manifest{}, metrics: obs.NewRegistryMetrics(nil)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		var m Manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("registry: parsing %s: %w", e.Name(), err)
		}
		if m.ID == "" || m.ID+".json" != e.Name() {
			return nil, fmt.Errorf("registry: manifest %s names id %q", e.Name(), m.ID)
		}
		s.index[m.ID] = &m
	}
	return s, nil
}

// Dir returns the backing directory.
func (s *Store) Dir() string { return s.dir }

// Publish serializes the delta and writes the artifact, returning its
// manifest. Content-addressed: publishing identical weights with an
// identical spec core returns the already-stored manifest.
func (s *Store) Publish(spec Spec, delta nn.ParamSet) (Manifest, error) {
	if len(delta) == 0 {
		return Manifest{}, fmt.Errorf("registry: empty delta")
	}
	var weights bytes.Buffer
	if err := delta.Save(&weights); err != nil {
		return Manifest{}, fmt.Errorf("registry: serializing delta: %w", err)
	}

	man := Manifest{
		Name:         spec.Name,
		Method:       spec.Method,
		Base:         spec.Base,
		BaseHash:     spec.Base.Hash(),
		Rank:         spec.Rank,
		Alpha:        spec.Alpha,
		PromptTokens: spec.PromptTokens,
		Bottleneck:   spec.Bottleneck,
		WeightBytes:  int64(weights.Len()),
	}
	for _, p := range delta {
		man.Params = append(man.Params, ParamInfo{Name: p.Name, Shape: append([]int(nil), p.W.Shape()...)})
	}
	man.ID = artifactID(man, weights.Bytes())
	man.Created = time.Now().UTC()

	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics.Publishes.Inc()
	if existing, ok := s.index[man.ID]; ok {
		return *existing, nil
	}
	write := func(suffix string, data []byte) error {
		return durable.WriteFile(filepath.Join(s.dir, man.ID+suffix), func(w io.Writer) error {
			_, err := w.Write(data)
			return err
		})
	}
	if err := write(".lexp", weights.Bytes()); err != nil {
		return Manifest{}, err
	}
	manJSON, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return Manifest{}, err
	}
	if err := write(".json", append(manJSON, '\n')); err != nil {
		return Manifest{}, err
	}
	s.index[man.ID] = &man
	s.metrics.Adapters.Set(float64(len(s.index)))
	return man, nil
}

// artifactID hashes the identity-bearing manifest core plus the weight
// bytes. Name and Created are excluded: the same trained delta published
// under two display names is the same artifact.
func artifactID(m Manifest, weights []byte) string {
	h := sha256.New()
	core := struct {
		Method   string   `json:"method"`
		BaseHash string   `json:"base_hash"`
		Rank     int      `json:"rank"`
		Alpha    float64  `json:"alpha"`
		Prompt   int      `json:"prompt"`
		Bneck    int      `json:"bneck"`
		Base     BaseDesc `json:"base"`
	}{m.Method, m.BaseHash, m.Rank, m.Alpha, m.PromptTokens, m.Bottleneck, m.Base}
	j, err := json.Marshal(core)
	if err != nil {
		panic(fmt.Sprintf("registry: hashing manifest core: %v", err))
	}
	h.Write(j)
	h.Write(weights)
	return "ad-" + hex.EncodeToString(h.Sum(nil)[:8])
}

// Get returns one artifact's manifest.
func (s *Store) Get(id string) (Manifest, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.index[id]
	if !ok {
		return Manifest{}, false
	}
	return *m, true
}

// Has reports whether an artifact id is stored.
func (s *Store) Has(id string) bool {
	_, ok := s.Get(id)
	return ok
}

// Load returns the manifest and the deserialized delta parameters.
func (s *Store) Load(id string) (Manifest, nn.ParamSet, error) {
	man, ok := s.Get(id)
	if !ok {
		return Manifest{}, nil, fmt.Errorf("registry: unknown adapter %q", id)
	}
	f, err := os.Open(filepath.Join(s.dir, id+".lexp"))
	if err != nil {
		return Manifest{}, nil, fmt.Errorf("registry: opening weights for %s: %w", id, err)
	}
	defer f.Close()
	ps, err := nn.LoadParams(f)
	if err != nil {
		return Manifest{}, nil, fmt.Errorf("registry: loading weights for %s: %w", id, err)
	}
	s.mu.RLock()
	s.metrics.Loads.Inc()
	s.mu.RUnlock()
	return man, ps, nil
}

// List returns every manifest, oldest first (ID tiebreak).
func (s *Store) List() []Manifest {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Manifest, 0, len(s.index))
	for _, m := range s.index {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Created.Equal(out[j].Created) {
			return out[i].Created.Before(out[j].Created)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Len reports the number of stored artifacts.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Delete removes an artifact and its files.
func (s *Store) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[id]; !ok {
		return fmt.Errorf("registry: unknown adapter %q", id)
	}
	delete(s.index, id)
	s.metrics.Deletes.Inc()
	s.metrics.Adapters.Set(float64(len(s.index)))
	var firstErr error
	for _, suffix := range []string{".lexp", ".json"} {
		if err := os.Remove(filepath.Join(s.dir, id+suffix)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
