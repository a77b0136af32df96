package slo

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"longexposure/internal/events"
	"longexposure/internal/obs"
	"longexposure/internal/trace"
)

// sample is one evaluation tick's cumulative good/total reading.
type sample struct {
	t           int64 // UnixNano
	good, total float64
}

// before returns the newest sample no newer than cutoff, falling back
// to the oldest retained sample when the whole ring is newer (a window
// longer than recorded history measures over what exists). ok is false
// only on an empty ring. Binary search over the ring's age order;
// allocation-free.
func before(r *events.Ring[sample], cutoff int64) (sample, bool) {
	if r.Len() == 0 {
		return sample{}, false
	}
	lo, hi := 0, r.Len()-1 // invariant: answer index is in [lo, hi] if any sample <= cutoff
	if r.At(0).t > cutoff {
		return *r.At(0), true
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if r.At(mid).t <= cutoff {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return *r.At(lo), true
}

// objective is one configured SLO plus its live evaluation state.
type objective struct {
	spec Objective
	src  source
	ring events.Ring[sample]
	m    *obs.ObjectiveSLOMetrics

	state        string
	since        time.Time // entered current state
	pendingSince time.Time
	hasData      bool

	good, total float64 // latest cumulative reading
	burn        [4]float64
	budget      float64
	fastActive  bool
	slowActive  bool
}

// Deps wires an Engine to the rest of the daemon. Metrics is required —
// it is both the source the objectives read and where lexp_slo_* is
// registered; everything else is optional.
type Deps struct {
	Metrics  *obs.Registry
	Tracer   *trace.Tracer // span trees in flight-recorder dumps
	Logger   *slog.Logger  // structured records per alert transition
	Recorder *Recorder     // black-box capture + dump-on-firing
}

// Engine evaluates a Config's objectives on a fixed tick. Construct
// with New; either drive Tick manually (tests) or call Start for the
// background loop. All methods are safe for concurrent use.
type Engine struct {
	cfg    Config
	reg    *obs.Registry
	m      *obs.SLOMetrics
	tracer *trace.Tracer
	rec    *Recorder
	log    *slog.Logger
	alerts *events.Topic[AlertEvent]

	mu         sync.Mutex
	objs       []*objective
	alertSeq   int64 // last AlertEvent.Seq stamped
	firing     int
	critFiring int
	lastTick   time.Time
	ticks      uint64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New validates cfg, binds every objective to its live instruments on
// d.Metrics, and registers the lexp_slo_* instrument families there.
// One registry carries at most one engine (registration is
// panic-on-duplicate by design).
func New(cfg Config, d Deps) (*Engine, error) {
	if d.Metrics == nil {
		return nil, fmt.Errorf("slo: Deps.Metrics is required")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	// Ring capacity: enough samples to cover the longest lookback window
	// at the configured tick, bounded so a pathological interval cannot
	// eat memory (beyond the bound, long windows measure over the
	// retained horizon — still monotone, just truncated).
	longest := cfg.Windows.Budget
	for _, w := range []Duration{cfg.Windows.FastLong, cfg.Windows.SlowLong} {
		if w > longest {
			longest = w
		}
	}
	capacity := int(longest.Std()/cfg.Interval.Std()) + 2
	if capacity < 16 {
		capacity = 16
	}
	if capacity > 8192 {
		capacity = 8192
	}

	e := &Engine{
		cfg:    cfg,
		reg:    d.Metrics,
		m:      obs.NewSLOMetrics(d.Metrics),
		tracer: d.Tracer,
		rec:    d.Recorder,
		log:    d.Logger,
		alerts: events.NewTopic(alertReplay, events.Options[AlertEvent]{Backlog: cfg.AlertBacklog, Lost: lostAlert}),
		stop:   make(chan struct{}),
	}
	for _, spec := range cfg.Objectives {
		src, err := newSource(d.Metrics, spec)
		if err != nil {
			return nil, err
		}
		e.objs = append(e.objs, &objective{
			spec:  spec,
			src:   src,
			ring:  events.NewRing[sample](capacity),
			m:     e.m.Objective(spec.Name),
			state: StateInactive,
		})
	}
	if e.rec != nil {
		e.rec.attach(e, len(e.objs))
	}
	return e, nil
}

// Config returns the engine's effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// Recorder returns the attached flight recorder (nil when absent).
func (e *Engine) Recorder() *Recorder { return e.rec }

// SubscribeAlerts returns a channel replaying recent alert transitions
// and then streaming live ones, plus a cancel func. The channel closes
// after Stop (or cancel).
func (e *Engine) SubscribeAlerts() (<-chan AlertEvent, func()) {
	return e.alerts.Subscribe()
}

// Start launches the background evaluation loop at the configured
// interval. Stop ends it.
func (e *Engine) Start() {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		t := time.NewTicker(e.cfg.Interval.Std())
		defer t.Stop()
		for {
			select {
			case now := <-t.C:
				e.Tick(now)
			case <-e.stop:
				return
			}
		}
	}()
}

// Stop ends the evaluation loop and closes every alert subscription
// (after their backlogs drain). Idempotent.
func (e *Engine) Stop() {
	e.stopOnce.Do(func() { close(e.stop) })
	e.wg.Wait()
	e.alerts.Close()
}

// Tick runs one evaluation pass as of now. Exported so tests (and the
// bench suite) can drive a synthetic clock; the Start loop calls it
// with wall time. Steady state — no alert transition — allocates
// nothing.
func (e *Engine) Tick(now time.Time) {
	e.mu.Lock()
	e.lastTick = now
	e.ticks++

	var slot, prevSlot []ObjectiveTick
	if e.rec != nil {
		slot, prevSlot = e.rec.beginTick(now)
	}

	var fired []*objective
	firing, critical := 0, 0
	for i, o := range e.objs {
		prev := o.state
		e.evaluate(o, now)
		if o.state != prev {
			e.publishTransition(o, prev, now)
			if o.state == StateFiring {
				fired = append(fired, o)
			}
		}
		if o.state == StateFiring {
			firing++
			if o.spec.Critical {
				critical++
			}
		}
		if slot != nil {
			slot[i] = ObjectiveTick{
				Objective: o.spec.Name,
				State:     o.state,
				Good:      o.good,
				Total:     o.total,
				Burn:      o.burn,
				Budget:    o.budget,
			}
			if i < len(prevSlot) {
				slot[i].DGood = o.good - prevSlot[i].Good
				slot[i].DTotal = o.total - prevSlot[i].Total
			}
		}
	}
	e.firing, e.critFiring = firing, critical
	e.m.Evaluations.Inc()
	e.m.AlertsFiring.Set(float64(firing))

	// Dump after state settles so the report inside the dump already
	// shows the firing objective. Rare path; allocation is fine here.
	var report *Report
	if len(fired) > 0 && e.rec != nil {
		report = e.reportLocked(now)
	}
	e.mu.Unlock()

	if report != nil {
		for _, o := range fired {
			path, err := e.rec.dump("alert-firing-"+o.spec.Name, report)
			if e.log != nil {
				if err != nil {
					e.log.Error("flight-recorder dump failed", "objective", o.spec.Name, "err", err)
				} else if path != "" {
					e.log.Info("flight-recorder dump written", "objective", o.spec.Name, "path", path)
				}
			}
		}
	}
}

// evaluate advances one objective's burn rates and alert state. Callers
// hold e.mu.
func (e *Engine) evaluate(o *objective, now time.Time) {
	good, total, ok := o.src.sample()
	o.hasData = ok
	if !ok {
		// Instruments not live yet: no data, no alert pressure.
		o.burn = [4]float64{}
		o.budget = 1
		o.fastActive, o.slowActive = false, false
	} else {
		o.good, o.total = good, total
		o.ring.Put(sample{t: now.UnixNano(), good: good, total: total})

		w := e.cfg.Windows
		o.burn[0] = o.burnOver(now, w.FastShort)
		o.burn[1] = o.burnOver(now, w.FastLong)
		o.burn[2] = o.burnOver(now, w.SlowShort)
		o.burn[3] = o.burnOver(now, w.SlowLong)
		o.budget = 1 - o.burnOver(now, w.Budget)

		o.fastActive = o.burn[0] >= w.FastBurn && o.burn[1] >= w.FastBurn
		o.slowActive = o.burn[2] >= w.SlowBurn && o.burn[3] >= w.SlowBurn
	}

	active := o.fastActive || o.slowActive
	switch o.state {
	case StateInactive, StateResolved:
		if active {
			o.state = StatePending
			o.since, o.pendingSince = now, now
		}
	case StatePending:
		if !active {
			// A pending alert that clears never fired: return to inactive
			// silently (the state gauge still moves).
			o.state = StateInactive
			o.since = now
		} else if now.Sub(o.pendingSince) >= e.cfg.Windows.For.Std() {
			o.state = StateFiring
			o.since = now
		}
	case StateFiring:
		if !active {
			o.state = StateResolved
			o.since = now
		}
	}

	o.m.BurnFastShort.Set(o.burn[0])
	o.m.BurnFastLong.Set(o.burn[1])
	o.m.BurnSlowShort.Set(o.burn[2])
	o.m.BurnSlowLong.Set(o.burn[3])
	o.m.BudgetRemaining.Set(o.budget)
	o.m.State.Set(stateGauge(o.state))
}

// burnOver measures the error-budget burn rate across the trailing
// window: the bad-event fraction of the window's traffic divided by the
// error budget (1 - target). Zero traffic burns nothing — which is also
// what lets a quiet system recover: once the window holds only
// flat samples, the burn is 0 and firing alerts resolve.
func (o *objective) burnOver(now time.Time, window Duration) float64 {
	prev, ok := before(&o.ring, now.Add(-window.Std()).UnixNano())
	if !ok {
		return 0
	}
	dTotal := o.total - prev.total
	if dTotal <= 0 {
		return 0
	}
	dBad := dTotal - (o.good - prev.good)
	if dBad <= 0 {
		return 0
	}
	return (dBad / dTotal) / (1 - o.spec.Target)
}

// publishTransition fans one state change out to the alert topic,
// metrics, the structured log and the flight recorder. Callers hold
// e.mu. Pending→inactive moves only the gauge, not the stream.
func (e *Engine) publishTransition(o *objective, prev string, now time.Time) {
	switch o.state {
	case StatePending:
		o.m.ToPending.Inc()
	case StateFiring:
		o.m.ToFiring.Inc()
	case StateResolved:
		o.m.ToResolved.Inc()
	default:
		return // pending → inactive: silent
	}
	e.alertSeq++
	ev := AlertEvent{
		Seq:             e.alertSeq,
		Time:            now,
		Objective:       o.spec.Name,
		Kind:            o.spec.Kind,
		State:           o.state,
		Prev:            prev,
		Critical:        o.spec.Critical,
		BurnFastShort:   o.burn[0],
		BurnFastLong:    o.burn[1],
		BurnSlowShort:   o.burn[2],
		BurnSlowLong:    o.burn[3],
		BudgetRemaining: o.budget,
		Message: fmt.Sprintf("objective %s: %s -> %s (budget remaining %.3f)",
			o.spec.Name, prev, o.state, o.budget),
	}
	e.alerts.Publish(ev)
	if e.rec != nil {
		e.rec.noteAlert(ev)
	}
	if e.log != nil {
		e.log.LogAttrs(context.Background(), transitionLevel(o.state), "slo alert transition",
			slog.String("objective", o.spec.Name),
			slog.String("state", o.state),
			slog.String("prev", prev),
			slog.Float64("budget_remaining", o.budget),
			slog.Float64("burn_fast_short", o.burn[0]),
			slog.Bool("critical", o.spec.Critical))
	}
}

func transitionLevel(state string) slog.Level {
	switch state {
	case StateFiring:
		return slog.LevelError
	case StatePending:
		return slog.LevelWarn
	default:
		return slog.LevelInfo
	}
}

// ---- health ----

// HealthSource reports one subsystem's readiness verdict; /readyz
// aggregates them. status is a short token surfaced in the readyz body
// when not ok (e.g. "shedding", "slo_firing").
type HealthSource interface {
	HealthName() string
	Healthy() (ok bool, status string)
}

// healthFunc adapts a closure to a HealthSource.
type healthFunc struct {
	name string
	fn   func() (bool, string)
}

func (h healthFunc) HealthName() string           { return h.name }
func (h healthFunc) Healthy() (ok bool, s string) { return h.fn() }

// HealthFunc adapts fn to a HealthSource.
func HealthFunc(name string, fn func() (ok bool, status string)) HealthSource {
	return healthFunc{name: name, fn: fn}
}

// HealthName implements HealthSource.
func (e *Engine) HealthName() string { return "slo" }

// Healthy implements HealthSource: the engine is unhealthy while any
// critical objective is firing, which fails /readyz and (in a cluster)
// steers the router away from this replica.
func (e *Engine) Healthy() (bool, string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.critFiring > 0 {
		return false, "slo_firing"
	}
	return true, "ready"
}

// ---- report ----

// BurnRates is one objective's burn per evaluation window.
type BurnRates struct {
	FastShort float64 `json:"fast_short"`
	FastLong  float64 `json:"fast_long"`
	SlowShort float64 `json:"slow_short"`
	SlowLong  float64 `json:"slow_long"`
}

// ObjectiveStatus is one objective's line in the /debug/slo report.
type ObjectiveStatus struct {
	Objective
	State           string    `json:"state"`
	Since           time.Time `json:"since"`
	HasData         bool      `json:"has_data"`
	GoodEvents      float64   `json:"good_events"`
	TotalEvents     float64   `json:"total_events"`
	BudgetRemaining float64   `json:"error_budget_remaining"`
	Burn            BurnRates `json:"burn"`
}

// Report is the /debug/slo payload.
type Report struct {
	Time         time.Time         `json:"time"`
	Interval     Duration          `json:"interval"`
	Windows      Windows           `json:"windows"`
	Evaluations  uint64            `json:"evaluations"`
	AlertsFiring int               `json:"alerts_firing"`
	Objectives   []ObjectiveStatus `json:"objectives"`
}

// Report summarizes every objective's current judgement.
func (e *Engine) Report() *Report {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.reportLocked(e.lastTick)
}

func (e *Engine) reportLocked(now time.Time) *Report {
	rep := &Report{
		Time:         now,
		Interval:     e.cfg.Interval,
		Windows:      e.cfg.Windows,
		Evaluations:  e.ticks,
		AlertsFiring: e.firing,
		Objectives:   make([]ObjectiveStatus, 0, len(e.objs)),
	}
	for _, o := range e.objs {
		rep.Objectives = append(rep.Objectives, ObjectiveStatus{
			Objective:       o.spec,
			State:           o.state,
			Since:           o.since,
			HasData:         o.hasData,
			GoodEvents:      o.good,
			TotalEvents:     o.total,
			BudgetRemaining: o.budget,
			Burn: BurnRates{
				FastShort: o.burn[0], FastLong: o.burn[1],
				SlowShort: o.burn[2], SlowLong: o.burn[3],
			},
		})
	}
	return rep
}
