package limit

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"longexposure/internal/obs"
	"longexposure/internal/trace"
)

// AdmissionConfig sizes an admission controller.
type AdmissionConfig struct {
	// MaxInFlight bounds concurrently admitted requests (required > 0).
	MaxInFlight int
	// MaxWait bounds the wait queue: requests arriving with MaxInFlight
	// in flight park here until a slot frees. 0 means shed immediately
	// when saturated.
	MaxWait int
	// WaitTimeout bounds how long a parked request waits before being
	// shed (default 2s).
	WaitTimeout time.Duration
	// RetryAfter is the hint attached to shed responses (default 1s).
	RetryAfter time.Duration
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.WaitTimeout <= 0 {
		c.WaitTimeout = 2 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// ShedError reports a load-shedding decision: the request was not
// admitted and the client should retry after the hint.
type ShedError struct {
	Reason     string // "draining", "queue_full", "timeout", "cancelled"
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("limit: request shed (%s); retry after %s", e.Reason, e.RetryAfter)
}

// Admission is a load-shedding admission controller: a concurrency cap
// with a bounded wait queue. Requests beyond MaxInFlight park (up to
// MaxWait of them, for up to WaitTimeout each); everything else is shed
// immediately so overload degrades into fast 429s instead of collapse.
// SetDraining flips the controller into full shedding for shutdown.
type Admission struct {
	cfg      AdmissionConfig
	slots    chan struct{} // buffered MaxInFlight; a held slot = admitted
	waiting  atomic.Int64
	draining atomic.Bool
	m        *obs.EndpointLimitMetrics
}

// NewAdmission builds a controller; m meters its decisions (nil: no-op
// handles).
func NewAdmission(cfg AdmissionConfig, m *obs.EndpointLimitMetrics) *Admission {
	if cfg.MaxInFlight <= 0 {
		panic("limit: AdmissionConfig.MaxInFlight must be positive")
	}
	if m == nil {
		m = obs.NewLimitMetrics(nil).Endpoint("")
	}
	cfg = cfg.withDefaults()
	return &Admission{cfg: cfg, slots: make(chan struct{}, cfg.MaxInFlight), m: m}
}

// Acquire admits the request or sheds it. On admission the returned
// release func must be called exactly once when the request finishes; on
// shed it returns a *ShedError carrying the reason and Retry-After hint.
func (a *Admission) Acquire(ctx context.Context) (release func(), err *ShedError) {
	sp := trace.FromContext(ctx).StartChild("limit.acquire")
	defer func() {
		if err != nil {
			sp.SetStr("outcome", err.Reason)
		} else {
			sp.SetStr("outcome", "admitted")
		}
		sp.Finish()
	}()
	if a.draining.Load() {
		return nil, a.shed("draining")
	}
	select {
	case a.slots <- struct{}{}:
		return a.admitted(), nil
	default:
	}

	// Saturated: park in the bounded wait queue or shed. The slot is
	// claimed with a CAS loop — a plain check-then-Add would let a burst
	// of simultaneous arrivals all pass the check and park far more than
	// MaxWait waiters.
	for {
		w := a.waiting.Load()
		if a.cfg.MaxWait <= 0 || int(w) >= a.cfg.MaxWait {
			return nil, a.shed("queue_full")
		}
		if a.waiting.CompareAndSwap(w, w+1) {
			break
		}
	}
	a.m.Waiting.Inc()
	sp.SetBool("queued", true)
	t0 := time.Now()
	timer := time.NewTimer(a.cfg.WaitTimeout)
	defer func() {
		timer.Stop()
		a.waiting.Add(-1)
		a.m.Waiting.Dec()
	}()

	select {
	case a.slots <- struct{}{}:
		if a.draining.Load() {
			// Drain began while parked; give the slot back and shed.
			<-a.slots
			return nil, a.shed("draining")
		}
		a.m.WaitSeconds.Observe(time.Since(t0).Seconds())
		sp.SetFloat("wait_seconds", time.Since(t0).Seconds())
		return a.admitted(), nil
	case <-timer.C:
		return nil, a.shed("timeout")
	case <-ctx.Done():
		return nil, a.shed("cancelled")
	}
}

func (a *Admission) admitted() func() {
	a.m.Admitted.Inc()
	a.m.InFlight.Inc()
	var done atomic.Bool
	return func() {
		if done.Swap(true) {
			return // release is idempotent
		}
		<-a.slots
		a.m.InFlight.Dec()
	}
}

func (a *Admission) shed(reason string) *ShedError {
	switch reason {
	case "draining":
		a.m.ShedDraining.Inc()
	case "queue_full":
		a.m.ShedQueueFull.Inc()
	case "timeout":
		a.m.ShedTimeout.Inc()
	case "cancelled":
		a.m.ShedCancelled.Inc()
	}
	return &ShedError{Reason: reason, RetryAfter: a.cfg.RetryAfter}
}

// SetDraining flips full-shedding mode: every subsequent Acquire is shed
// with reason "draining". In-flight requests keep their slots and drain
// normally.
func (a *Admission) SetDraining(v bool) { a.draining.Store(v) }

// Draining reports drain mode.
func (a *Admission) Draining() bool { return a.draining.Load() }

// InFlight reports currently admitted requests.
func (a *Admission) InFlight() int { return len(a.slots) }

// Waiting reports requests parked in the wait queue.
func (a *Admission) Waiting() int { return int(a.waiting.Load()) }

// Shedding reports whether the controller is fully shedding new work:
// draining, or saturated with a full wait queue. Readiness probes report
// not-ready while this holds.
func (a *Admission) Shedding() bool {
	if a.draining.Load() {
		return true
	}
	return len(a.slots) >= a.cfg.MaxInFlight && int(a.waiting.Load()) >= a.cfg.MaxWait
}
