package account

import (
	"sync"
	"time"

	"longexposure/internal/events"
	"longexposure/internal/obs"
)

// Config sizes a Plane.
type Config struct {
	// Dir, when set, arms the on-disk segmented log; "" keeps events in
	// memory only.
	Dir string
	// Ring bounds the in-memory event ring (default 1024).
	Ring int
	// SegmentBytes rotates the active segment past this size (default 1 MiB).
	SegmentBytes int64
	// MaxBytes prunes sealed segments oldest-first past this total
	// (default 64 MiB; 0 keeps the default, -1 disables size pruning).
	MaxBytes int64
	// Retention prunes sealed segments older than this age (0 disables).
	Retention time.Duration
	// Metrics, when set, folds every emission into the global
	// lexp_account_* and lexp_flops_saved_total instruments.
	Metrics *obs.AccountMetrics
}

func (c Config) withDefaults() Config {
	if c.Ring <= 0 {
		c.Ring = 1024
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 1 << 20
	}
	switch {
	case c.MaxBytes == 0:
		c.MaxBytes = 64 << 20
	case c.MaxBytes < 0:
		c.MaxBytes = 0
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewAccountMetrics(nil) // no-op handles
	}
	return c
}

// Plane is the wide-event accounting plane: a bounded in-memory ring, a
// per-tenant usage rollup, the global metric fold, and the optional disk
// log — all updated atomically under one emission, so the conservation
// invariant (usage sums == counters == ring-visible history) holds at
// every instant. Emit is safe for concurrent use and allocation-free at
// steady state.
type Plane struct {
	cfg Config

	mu    sync.Mutex
	ring  events.Ring[Event] // preallocated; filled in place
	usage map[string]*Usage
	total Usage
	log   *segLog

	// health, when set, stamps the SLO engine's readiness verdict into
	// every emitted event (empty while healthy).
	health func() (bool, string)
}

// New opens a plane. When cfg.Dir is set, every complete record already
// on disk is replayed into the ring and the usage rollups (metrics are
// process-lifetime and deliberately not replayed), the active segment's
// torn tail (a crash mid-write) is truncated, and appends resume.
func New(cfg Config) (*Plane, error) {
	cfg = cfg.withDefaults()
	p := &Plane{cfg: cfg, ring: events.NewRing[Event](cfg.Ring), usage: map[string]*Usage{}}
	if cfg.Dir != "" {
		l, err := openLog(cfg.Dir, cfg.SegmentBytes, cfg.MaxBytes, cfg.Retention, cfg.Metrics, func(e *Event) {
			*p.ring.Next() = *e
			p.rollup(e)
		})
		if err != nil {
			return nil, err
		}
		p.log = l
	}
	return p, nil
}

// SetHealth wires the SLO engine's readiness verdict into emissions
// (e.g. plane.SetHealth(engine.Healthy)). Call before serving traffic.
func (p *Plane) SetHealth(fn func() (bool, string)) {
	p.mu.Lock()
	p.health = fn
	p.mu.Unlock()
}

// Emit records one completed unit of work. The event is copied into the
// ring; the caller keeps ownership of ev (preallocated accumulators are
// reused across sequences). A zero Time is stamped with the current
// time; the SLO verdict is stamped when a health source is attached.
// Disk-log failures are counted and swallowed — accounting must never
// fail the request path. Emit on a nil plane is a no-op, so producers
// hold an optional plane without branching.
func (p *Plane) Emit(ev *Event) {
	if p == nil {
		return
	}
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	p.mu.Lock()
	if p.health != nil {
		if ok, status := p.health(); !ok {
			ev.SLO = status
		}
	}
	*p.ring.Next() = *ev
	p.rollup(ev)
	m := p.cfg.Metrics
	m.Event(ev.Kind).Inc()
	m.PromptTokens.Add(float64(ev.PromptTokens))
	m.OutputTokens.Add(float64(ev.OutputTokens))
	m.DenseFLOPs.Add(float64(ev.DenseFLOPs))
	m.ExecFLOPs.Add(float64(ev.ExecFLOPs))
	m.SavedMLP.Add(float64(ev.MLPSavedFLOPs))
	m.SavedAttn.Add(float64(ev.AttnSavedFLOPs))
	if ev.Shed() {
		m.Shed.Inc()
	}
	if p.log != nil {
		if err := p.log.append(ev); err != nil {
			m.LogErrors.Inc()
		}
	}
	p.mu.Unlock()
}

func (p *Plane) rollup(ev *Event) {
	u := p.usage[ev.Tenant]
	if u == nil {
		u = &Usage{}
		p.usage[ev.Tenant] = u
	}
	u.add(ev)
	p.total.add(ev)
}

// Filter selects events out of the ring. Zero-valued fields match
// everything.
type Filter struct {
	Tenant  string
	Route   string
	Adapter string
	TraceID string
	Outcome string
	Kind    string
	Since   time.Time
	Until   time.Time
	Limit   int // max events returned (newest kept); 0 = all
}

func (f *Filter) match(e *Event) bool {
	if f.Tenant != "" && e.Tenant != f.Tenant {
		return false
	}
	if f.Route != "" && e.Route != f.Route {
		return false
	}
	if f.Adapter != "" && e.Adapter != f.Adapter {
		return false
	}
	if f.TraceID != "" && e.TraceID != f.TraceID {
		return false
	}
	if f.Outcome != "" && e.Outcome != f.Outcome {
		return false
	}
	if f.Kind != "" && e.Kind != f.Kind {
		return false
	}
	if !f.Since.IsZero() && e.Time.Before(f.Since) {
		return false
	}
	if !f.Until.IsZero() && e.Time.After(f.Until) {
		return false
	}
	return true
}

// Events returns the matching events, oldest first (copies — the ring
// keeps rolling underneath).
func (p *Plane) Events(f Filter) []Event {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []Event
	for i := 0; i < p.ring.Len(); i++ {
		if e := p.ring.At(i); f.match(e) {
			out = append(out, *e)
		}
	}
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[len(out)-f.Limit:]
	}
	return out
}

// Recent returns the newest n events, oldest first — the flight
// recorder's wide-event window.
func (p *Plane) Recent(n int) []Event {
	return p.Events(Filter{Limit: n})
}

// UsageByTenant snapshots the cumulative per-tenant rollups plus the
// global total.
func (p *Plane) UsageByTenant() (map[string]Usage, Usage) {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]Usage, len(p.usage))
	for t, u := range p.usage {
		out[t] = *u
	}
	return out, p.total
}

// Close flushes and closes the disk log. The in-memory surfaces keep
// working; further emissions are no longer persisted.
func (p *Plane) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.log == nil {
		return nil
	}
	err := p.log.close()
	p.log = nil
	return err
}
