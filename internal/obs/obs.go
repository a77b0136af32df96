// Package obs is the repository's observability substrate: a
// dependency-free metrics registry whose instruments — counters, gauges,
// and histograms with fixed log-scale buckets — are safe for concurrent
// use and allocation-free to update, so the zero-alloc steady state the
// training and decode hot paths earned in earlier PRs survives being
// measured. Exposition is Prometheus text format (expo.go); the domain
// instrument bundles every subsystem registers into live in metrics.go.
//
// Design rules:
//
//   - Updating an instrument (Inc/Add/Set/Observe) never allocates and
//     never takes a lock: values are atomics, histogram bucket search is
//     a binary search over a fixed bounds slice.
//   - Registration (Counter, GaugeVec.With, …) may allocate and lock; do
//     it once at construction time and keep the returned handle.
//   - Metric and label names are validated at registration and panic on
//     misuse — a malformed exposition is a programming error, not a
//     runtime condition.
//   - "Metrics off" is a nil *Registry, not a branch at every call site:
//     registering on a nil registry returns nil handles, and every update
//     method (and Vec.With) is a no-op on a nil receiver — the idiom
//     trace.Span uses. Subsystems build their bundles unconditionally and
//     update them unconditionally; off costs one nil check per update.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is an instrument family's type, as exposed in the TYPE comment.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Registry holds instrument families in registration order. The zero
// value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families []*family
	byName   map[string]*family
	hooks    []func() // run at the top of every Gather (lazy collectors)
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// family is one named metric with a fixed label-key set; labeled
// children are created on demand and live forever (cardinality is the
// caller's contract — label values must be bounded).
type family struct {
	name   string
	help   string
	kind   Kind
	keys   []string
	bounds []float64 // histograms only

	mu       sync.Mutex
	children []*child
	byLabels map[string]*child
}

// child is one (label-values) instance of a family. Exactly one of the
// typed heads is used, matching the family kind.
type child struct {
	labels string // pre-rendered {k="v",…} or ""
	values []string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

func (r *Registry) family(name, help string, kind Kind, bounds []float64, keys []string) *family {
	if r == nil {
		return nil
	}
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, k := range keys {
		if !labelRe.MatchString(k) {
			panic(fmt.Sprintf("obs: invalid label key %q on %s", k, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	f := &family{
		name: name, help: help, kind: kind,
		keys: append([]string(nil), keys...), bounds: bounds,
		byLabels: map[string]*child{},
	}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

// noChild is what a nil family (nil registry) resolves to: no instruments.
var noChild child

// get returns (creating if needed) the child for the given label values.
func (f *family) get(values []string) *child {
	if f == nil {
		return &noChild
	}
	if len(values) != len(f.keys) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.keys), len(values)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if ch, ok := f.byLabels[key]; ok {
		return ch
	}
	ch := &child{labels: renderLabels(f.keys, values), values: append([]string(nil), values...)}
	switch f.kind {
	case KindCounter:
		ch.c = &Counter{}
	case KindGauge:
		ch.g = &Gauge{}
	case KindHistogram:
		ch.h = newHistogram(f.bounds)
	}
	f.byLabels[key] = ch
	f.children = append(f.children, ch)
	return ch
}

// labelKey encodes label values unambiguously (length-prefixed, so a
// separator byte inside a value cannot collide with the join).
func labelKey(values []string) string {
	var b strings.Builder
	for _, v := range values {
		b.WriteString(strconv.Itoa(len(v)))
		b.WriteByte(':')
		b.WriteString(v)
	}
	return b.String()
}

func renderLabels(keys, values []string) string {
	if len(keys) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// ---- unlabeled instruments ----

// Counter registers an unlabeled monotonic counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, KindCounter, nil, nil).get(nil).c
}

// Gauge registers an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, KindGauge, nil, nil).get(nil).g
}

// Histogram registers an unlabeled histogram over the given ascending
// upper bounds (a final +Inf bucket is implicit). The bounds slice is
// retained; do not mutate it.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.family(name, help, KindHistogram, checkBounds(name, bounds), nil).get(nil).h
}

// ---- labeled instruments ----

// CounterVec registers a counter family with the given label keys.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, keys ...string) *CounterVec {
	return &CounterVec{r.family(name, help, KindCounter, nil, keys)}
}

// With returns the counter for the given label values, creating it on
// first use. Cache the handle on hot paths — With locks and may allocate.
func (v *CounterVec) With(values ...string) *Counter { return v.f.get(values).c }

// GaugeVec registers a gauge family with the given label keys.
type GaugeVec struct{ f *family }

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, keys ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, KindGauge, nil, keys)}
}

// With returns the gauge for the given label values (see CounterVec.With).
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.get(values).g }

// HistogramVec registers a histogram family with the given label keys.
type HistogramVec struct{ f *family }

// HistogramVec registers a labeled histogram family over shared bounds.
func (r *Registry) HistogramVec(name, help string, bounds []float64, keys ...string) *HistogramVec {
	return &HistogramVec{r.family(name, help, KindHistogram, checkBounds(name, bounds), keys)}
}

// With returns the histogram for the given label values (see CounterVec.With).
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.get(values).h }

func checkBounds(name string, bounds []float64) []float64 {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %s needs at least one bucket bound", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not strictly ascending at %d", name, i))
		}
	}
	return bounds
}

// ---- instrument value types ----

// Counter is a monotonically increasing float64. All methods are
// lock-free and allocation-free; updates on a nil *Counter are no-ops.
type Counter struct{ bits atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds a non-negative delta; negative deltas panic (counters only go up).
func (c *Counter) Add(d float64) {
	if c == nil {
		return
	}
	if d < 0 {
		panic("obs: counter cannot decrease")
	}
	addFloat(&c.bits, d)
}

// Value returns the current total (0 for a nil counter).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is an arbitrary float64 level. All methods are lock-free and
// allocation-free; updates on a nil *Gauge are no-ops.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adjusts the gauge by d (negative deltas allowed).
func (g *Gauge) Add(d float64) {
	if g != nil {
		addFloat(&g.bits, d)
	}
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current level.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func addFloat(bits *atomic.Uint64, d float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Histogram counts observations into fixed buckets (upper bounds are
// inclusive, Prometheus-style) and tracks their sum. Observe is lock-free
// and allocation-free: a binary search over the bounds plus three atomics.
// Observing into a nil *Histogram is a no-op.
type Histogram struct {
	bounds    []float64
	counts    []atomic.Uint64 // len(bounds)+1; the last is the +Inf bucket
	n         atomic.Uint64
	sum       atomic.Uint64              // float64 bits
	exemplars []atomic.Pointer[Exemplar] // len(bounds)+1; last write wins per bucket
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds:    bounds,
		counts:    make([]atomic.Uint64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.n.Add(1)
	addFloat(&h.sum, v)
}

// Exemplar links one observation to the trace that produced it, so a slow
// bucket in a latency histogram points straight at a span tree in
// /debug/traces. Exposed on the OpenMetrics exposition path only.
type Exemplar struct {
	Value   float64   `json:"value"`
	TraceID string    `json:"trace_id"`
	Time    time.Time `json:"time"`
}

// ObserveExemplar is Observe plus an exemplar attached to the bucket the
// value lands in (last write wins). It allocates one Exemplar, so it
// belongs on request-scoped paths where the caller is already sampled —
// never inside the zero-alloc step loops, which use plain Observe.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.n.Add(1)
	addFloat(&h.sum, v)
	if traceID != "" {
		h.exemplars[i].Store(&Exemplar{Value: v, TraceID: traceID, Time: time.Now()})
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Bounds returns the histogram's bucket upper bounds. The slice is
// shared and must not be mutated.
func (h *Histogram) Bounds() []float64 { return h.bounds }

// CountAtMost returns the cumulative number of observations that landed
// in buckets whose upper bound is <= bound — the "good events" count a
// latency objective reads every evaluation tick. The answer is
// bucketized: a bound falling strictly inside a bucket excludes that
// whole bucket. Lock-free and allocation-free.
func (h *Histogram) CountAtMost(bound float64) uint64 {
	i := sort.SearchFloat64s(h.bounds, bound)
	if i < len(h.bounds) && h.bounds[i] == bound {
		i++
	}
	var n uint64
	for j := 0; j < i; j++ {
		n += h.counts[j].Load()
	}
	return n
}

// LogBuckets returns n strictly ascending upper bounds starting at min
// and growing by factor — the fixed log-scale bucket layout every
// histogram in this repo uses (a final +Inf bucket is implicit).
func LogBuckets(min, factor float64, n int) []float64 {
	if min <= 0 || factor <= 1 || n < 1 {
		panic("obs: LogBuckets wants min > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := min
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DurationBuckets is the shared latency layout: 1µs to ~33s in ×2 steps.
// Step latencies, HTTP latencies, queue waits and sequence lifetimes all
// land comfortably inside it; anything slower is the +Inf bucket.
var DurationBuckets = LogBuckets(1e-6, 2, 26)

// CountBuckets is the shared small-count layout (batch occupancy, queue
// depths): 1 to 512 in ×2 steps.
var CountBuckets = LogBuckets(1, 2, 10)

// ---- snapshots ----

// Point is one (labels → value) sample of a family.
type Point struct {
	LabelValues []string
	Labels      string // pre-rendered {k="v",…}, "" when unlabeled

	Value     float64     // counter total / gauge level
	Count     uint64      // histogram observation count
	Sum       float64     // histogram sum
	Buckets   []uint64    // histogram per-bucket (non-cumulative) counts
	Exemplars []*Exemplar // histogram per-bucket exemplars (entries may be nil)
}

// Snapshot is a consistent copy of one family.
type Snapshot struct {
	Name   string
	Help   string
	Kind   Kind
	Keys   []string
	Bounds []float64
	Points []Point
}

// OnGather registers a hook run at the start of every Gather, before any
// family is snapshotted. Hooks are how lazily-collected metrics (Go
// runtime stats, cache sizes) pay their cost only at scrape time: the
// hook sets ordinary gauges, Gather reads them like any other instrument.
// Hooks must not register new metrics or call Gather.
func (r *Registry) OnGather(fn func()) {
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	r.mu.Unlock()
}

// Gather snapshots every family in registration order.
func (r *Registry) Gather() []Snapshot {
	r.mu.RLock()
	hooks := r.hooks
	families := append([]*family(nil), r.families...)
	r.mu.RUnlock()
	for _, fn := range hooks {
		fn()
	}

	out := make([]Snapshot, 0, len(families))
	for _, f := range families {
		s := Snapshot{Name: f.name, Help: f.help, Kind: f.kind, Keys: f.keys, Bounds: f.bounds}
		f.mu.Lock()
		children := append([]*child(nil), f.children...)
		f.mu.Unlock()
		for _, ch := range children {
			p := Point{LabelValues: ch.values, Labels: ch.labels}
			switch f.kind {
			case KindCounter:
				p.Value = ch.c.Value()
			case KindGauge:
				p.Value = ch.g.Value()
			case KindHistogram:
				p.Count = ch.h.Count()
				p.Sum = ch.h.Sum()
				p.Buckets = make([]uint64, len(ch.h.counts))
				p.Exemplars = make([]*Exemplar, len(ch.h.counts))
				for i := range ch.h.counts {
					p.Buckets[i] = ch.h.counts[i].Load()
					p.Exemplars[i] = ch.h.exemplars[i].Load()
				}
			}
			s.Points = append(s.Points, p)
		}
		out = append(out, s)
	}
	return out
}

// Value returns the current value of a counter or gauge by name and
// label values — a convenience for tests and readiness checks; it returns
// false when the family or child does not exist.
func (r *Registry) Value(name string, labelValues ...string) (float64, bool) {
	r.mu.RLock()
	f, ok := r.byName[name]
	r.mu.RUnlock()
	if !ok {
		return 0, false
	}
	key := labelKey(labelValues)
	f.mu.Lock()
	ch, ok := f.byLabels[key]
	f.mu.Unlock()
	if !ok {
		return 0, false
	}
	switch f.kind {
	case KindCounter:
		return ch.c.Value(), true
	case KindGauge:
		return ch.g.Value(), true
	default:
		return float64(ch.h.Count()), true
	}
}

// ---- live lookups ----
//
// Gather copies everything and therefore allocates; the SLO engine's
// steady-state evaluation tick must not. These lookups resolve live
// instrument handles by name and precomputed label key without creating
// anything and without allocating, so a reader can retry them every
// tick until the instrumented code path first runs (e.g. a "5xx" status
// child on a healthy server may never exist at all).

// LabelKey precomputes the unambiguous child key for a label-value
// tuple, for use with the Peek*Key lookups. Compute it once at
// configuration time; the lookups themselves are then allocation-free.
func LabelKey(values ...string) string { return labelKey(values) }

// peek returns the live child for (name, key), or nil when the family
// is absent, of a different kind, or the child does not exist yet.
func (r *Registry) peek(name, key string, kind Kind) *child {
	r.mu.RLock()
	f, ok := r.byName[name]
	r.mu.RUnlock()
	if !ok || f.kind != kind {
		return nil
	}
	f.mu.Lock()
	ch := f.byLabels[key]
	f.mu.Unlock()
	return ch
}

// PeekCounterKey returns the live counter registered under name with
// child key LabelKey(labelValues...), without creating it. ok stays
// false until the instrumented path first touches the child.
func (r *Registry) PeekCounterKey(name, key string) (*Counter, bool) {
	if ch := r.peek(name, key, KindCounter); ch != nil {
		return ch.c, true
	}
	return nil, false
}

// PeekGaugeKey is PeekCounterKey for gauges.
func (r *Registry) PeekGaugeKey(name, key string) (*Gauge, bool) {
	if ch := r.peek(name, key, KindGauge); ch != nil {
		return ch.g, true
	}
	return nil, false
}

// PeekHistogramKey is PeekCounterKey for histograms.
func (r *Registry) PeekHistogramKey(name, key string) (*Histogram, bool) {
	if ch := r.peek(name, key, KindHistogram); ch != nil {
		return ch.h, true
	}
	return nil, false
}

// SumValues sums every live child of a counter or gauge family and
// reports how many children exist. It is the allocation-free way to
// fold a whole family (e.g. the mean per-layer serving density) without
// snapshotting it; ok is false for unknown or histogram families.
func (r *Registry) SumValues(name string) (sum float64, n int, ok bool) {
	r.mu.RLock()
	f, found := r.byName[name]
	r.mu.RUnlock()
	if !found || f.kind == KindHistogram {
		return 0, 0, false
	}
	f.mu.Lock()
	for _, ch := range f.children {
		if f.kind == KindCounter {
			sum += ch.c.Value()
		} else {
			sum += ch.g.Value()
		}
		n++
	}
	f.mu.Unlock()
	return sum, n, true
}
