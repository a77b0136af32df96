// Package limit is the traffic-control half of the observability plane:
// token-bucket rate limiting with per-tenant and global tiers (limit.go)
// and a load-shedding admission controller with a bounded wait queue
// (admit.go). Serving systems built on contextual sparsity only deliver
// their measured steady-state performance while the hot path stays inside
// its measured regime — these types are what keep arbitrary traffic from
// pushing it out, and every decision they make is metered through
// internal/obs so overload is visible before it is fatal.
package limit

import (
	"math"
	"sync"
	"time"

	"longexposure/internal/obs"
)

// TokenBucket is a classic token bucket: capacity Burst, refilled at Rate
// tokens per second. Safe for concurrent use.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time // injectable for deterministic tests
}

// NewTokenBucket builds a full bucket. rate must be positive; burst is
// clamped to at least 1 token.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	if burst < 1 {
		burst = 1
	}
	b := &TokenBucket{rate: rate, burst: burst, tokens: burst, now: time.Now}
	b.last = b.now()
	return b
}

// refillLocked advances the bucket to now.
func (b *TokenBucket) refillLocked() {
	now := b.now()
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(b.burst, b.tokens+dt*b.rate)
	}
	b.last = now
}

// Allow takes one token if available.
func (b *TokenBucket) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked()
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// refund returns one token (capped at burst) — used when a later tier
// rejects a request this bucket already charged.
func (b *TokenBucket) refund() {
	b.mu.Lock()
	b.tokens = math.Min(b.burst, b.tokens+1)
	b.mu.Unlock()
}

// RetryAfter reports how long until one token will be available — the
// Retry-After hint for a denied request (zero when a token is available
// right now).
func (b *TokenBucket) RetryAfter() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked()
	if b.tokens >= 1 {
		return 0
	}
	return time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
}

// Config sizes a Limiter. A zero rate disables that tier.
type Config struct {
	// Rate / Burst bound each tenant individually (tokens per second;
	// Burst defaults to max(1, 2·Rate)).
	Rate  float64
	Burst float64
	// GlobalRate / GlobalBurst bound the sum of all tenants.
	GlobalRate  float64
	GlobalBurst float64
	// MaxTenants bounds live tenant buckets; beyond it, the least
	// recently used bucket is evicted (its tenant restarts with a full
	// bucket — forgetting is strictly generous). Default 1024.
	MaxTenants int
}

func (c Config) withDefaults() Config {
	if c.Burst <= 0 {
		c.Burst = math.Max(1, 2*c.Rate)
	}
	if c.GlobalBurst <= 0 {
		c.GlobalBurst = math.Max(1, 2*c.GlobalRate)
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 1024
	}
	return c
}

// Enabled reports whether any tier is configured.
func (c Config) Enabled() bool { return c.Rate > 0 || c.GlobalRate > 0 }

// Limiter applies two token-bucket tiers: per-tenant (keyed by the
// API-key header value, or whatever the caller uses as identity) and
// global. A request must pass both.
type Limiter struct {
	cfg    Config
	global *TokenBucket

	mu      sync.Mutex
	tenants map[string]*tenantBucket

	tenantsGauge *obs.Gauge // nil until Instrument: updates are no-ops
	now          func() time.Time
}

type tenantBucket struct {
	b        *TokenBucket
	lastSeen time.Time
}

// New builds a limiter.
func New(cfg Config) *Limiter {
	cfg = cfg.withDefaults()
	l := &Limiter{cfg: cfg, tenants: map[string]*tenantBucket{}, now: time.Now}
	if cfg.GlobalRate > 0 {
		l.global = NewTokenBucket(cfg.GlobalRate, cfg.GlobalBurst)
	}
	return l
}

// Instrument attaches the live tenant-count gauge.
func (l *Limiter) Instrument(m *obs.LimitMetrics) { l.tenantsGauge = m.Tenants }

// Allow charges one request to the tenant. When denied it reports how
// long the client should wait before retrying. A request rejected by the
// global tier refunds the tenant token it already took: during global
// overload a well-behaved tenant must not find its own bucket drained by
// requests that were never served.
func (l *Limiter) Allow(tenant string) (bool, time.Duration) {
	var tb *TokenBucket
	if l.cfg.Rate > 0 {
		tb = l.bucketFor(tenant)
		if !tb.Allow() {
			return false, tb.RetryAfter()
		}
	}
	if l.global != nil && !l.global.Allow() {
		if tb != nil {
			tb.refund()
		}
		return false, l.global.RetryAfter()
	}
	return true, 0
}

// bucketFor returns (creating if needed) the tenant's bucket, evicting
// the least recently used one past MaxTenants.
func (l *Limiter) bucketFor(tenant string) *TokenBucket {
	l.mu.Lock()
	defer l.mu.Unlock()
	tb, ok := l.tenants[tenant]
	if !ok {
		if len(l.tenants) >= l.cfg.MaxTenants {
			var oldest string
			var oldestAt time.Time
			for k, v := range l.tenants {
				if oldest == "" || v.lastSeen.Before(oldestAt) {
					oldest, oldestAt = k, v.lastSeen
				}
			}
			delete(l.tenants, oldest)
		}
		tb = &tenantBucket{b: NewTokenBucket(l.cfg.Rate, l.cfg.Burst)}
		l.tenants[tenant] = tb
		l.tenantsGauge.Set(float64(len(l.tenants)))
	}
	tb.lastSeen = l.now()
	return tb.b
}

// Tenants reports the live tenant-bucket count.
func (l *Limiter) Tenants() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.tenants)
}
