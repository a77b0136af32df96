package limit

import (
	"context"
	"sync"
	"testing"
	"time"

	"longexposure/internal/obs"
)

// fakeClock drives buckets deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestBucket(rate, burst float64) (*TokenBucket, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := NewTokenBucket(rate, burst)
	b.now = clk.now
	b.last = clk.now()
	return b, clk
}

func TestTokenBucketRefill(t *testing.T) {
	b, clk := newTestBucket(2, 4) // 2 tokens/s, burst 4

	for i := 0; i < 4; i++ {
		if !b.Allow() {
			t.Fatalf("burst token %d denied", i)
		}
	}
	if b.Allow() {
		t.Fatal("empty bucket allowed a request")
	}
	if ra := b.RetryAfter(); ra <= 0 || ra > time.Second {
		t.Fatalf("RetryAfter = %v, want (0, 1s] at 2 tokens/s", ra)
	}

	clk.advance(500 * time.Millisecond) // refills exactly 1 token
	if !b.Allow() {
		t.Fatal("refilled token denied")
	}
	if b.Allow() {
		t.Fatal("second token allowed after 0.5s at 2/s")
	}

	clk.advance(time.Hour) // refill clamps at burst
	for i := 0; i < 4; i++ {
		if !b.Allow() {
			t.Fatalf("post-clamp token %d denied", i)
		}
	}
	if b.Allow() {
		t.Fatal("burst clamp exceeded")
	}
}

func TestLimiterTenantIsolationAndGlobalTier(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	l := New(Config{Rate: 1, Burst: 2, GlobalRate: 1, GlobalBurst: 3})
	l.now = clk.now
	l.global.now = clk.now
	l.global.last = clk.now()
	fix := func(tenant string) {
		tb := l.bucketFor(tenant)
		tb.mu.Lock()
		tb.now = clk.now
		tb.last = clk.now()
		tb.mu.Unlock()
	}
	fix("alice")
	fix("bob")

	// Alice burns her burst of 2; Bob is unaffected (tenant isolation)
	// but the third request trips the global burst of 3.
	if ok, _ := l.Allow("alice"); !ok {
		t.Fatal("alice 1 denied")
	}
	if ok, _ := l.Allow("alice"); !ok {
		t.Fatal("alice 2 denied")
	}
	if ok, ra := l.Allow("alice"); ok || ra <= 0 {
		t.Fatalf("alice over-burst allowed (ok=%v retry=%v)", ok, ra)
	}
	if ok, _ := l.Allow("bob"); !ok {
		t.Fatal("bob denied despite fresh tenant bucket")
	}
	if ok, ra := l.Allow("bob"); ok || ra <= 0 {
		t.Fatalf("global tier did not trip (ok=%v retry=%v)", ok, ra)
	}
}

// TestGlobalDenialRefundsTenantToken pins overload fairness: a request
// rejected by the global tier must not also drain the tenant's own
// bucket (per-tenant refill here is negligible, so a missing refund
// would leave alice empty).
func TestGlobalDenialRefundsTenantToken(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	l := New(Config{Rate: 1e-4, Burst: 2, GlobalRate: 1e-3, GlobalBurst: 1})
	l.now = clk.now
	l.global.now = clk.now
	l.global.last = clk.now()
	alice := l.bucketFor("alice")
	alice.mu.Lock()
	alice.now = clk.now
	alice.last = clk.now()
	alice.mu.Unlock()

	if ok, _ := l.Allow("alice"); !ok { // tenant 2→1, global 1→0
		t.Fatal("first request denied")
	}
	if ok, _ := l.Allow("alice"); ok { // tenant would pass; global denies → refund
		t.Fatal("second request passed a drained global tier")
	}
	clk.advance(1001 * time.Second) // global refills 1 token; tenant ~0.1
	if ok, _ := l.Allow("alice"); !ok {
		t.Fatal("global denial drained alice's bucket (refund missing)")
	}
}

func TestLimiterEvictsLRUTenant(t *testing.T) {
	l := New(Config{Rate: 1, MaxTenants: 2})
	l.Allow("a")
	l.Allow("b")
	l.Allow("c") // evicts the LRU tenant (a)
	if n := l.Tenants(); n != 2 {
		t.Fatalf("tenants = %d, want 2", n)
	}
	l.mu.Lock()
	_, hasA := l.tenants["a"]
	l.mu.Unlock()
	if hasA {
		t.Fatal("LRU tenant a not evicted")
	}
}

func TestAdmissionCapAndQueue(t *testing.T) {
	r := obs.NewRegistry()
	em := obs.NewLimitMetrics(r).Endpoint("/test")
	a := NewAdmission(AdmissionConfig{MaxInFlight: 2, MaxWait: 1, WaitTimeout: 50 * time.Millisecond}, em)

	rel1, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a.InFlight() != 2 {
		t.Fatalf("inflight = %d", a.InFlight())
	}

	// Third request parks; releasing a slot admits it. released closes
	// only after rel3 returns, so the InFlight read below cannot race it.
	admitted, released := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(released)
		rel3, err := a.Acquire(context.Background())
		if err != nil {
			t.Errorf("parked request shed: %v", err)
			close(admitted)
			return
		}
		close(admitted)
		rel3()
	}()
	for a.Waiting() == 0 {
		time.Sleep(time.Millisecond)
	}

	// Fourth request finds the wait queue full → immediate shed.
	_, shedErr := a.Acquire(context.Background())
	if shedErr == nil || shedErr.Reason != "queue_full" {
		t.Fatalf("queue-full request not shed: %v", shedErr)
	}
	if !a.Shedding() {
		t.Fatal("saturated controller does not report Shedding")
	}
	if shedErr.RetryAfter <= 0 {
		t.Fatal("shed without Retry-After hint")
	}

	rel1()
	<-admitted
	rel2()
	rel1() // idempotent release must not free a second slot
	<-released
	if a.InFlight() != 0 {
		t.Fatalf("inflight after releases = %d", a.InFlight())
	}

	if v, ok := r.Value("lexp_limit_shed_total", "/test", "queue_full"); !ok || v != 1 {
		t.Fatalf("shed metric = %v, %v", v, ok)
	}
	if v, _ := r.Value("lexp_limit_admitted_total", "/test"); v != 3 {
		t.Fatalf("admitted metric = %v, want 3", v)
	}
}

func TestAdmissionWaitTimeout(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxInFlight: 1, MaxWait: 4, WaitTimeout: 20 * time.Millisecond}, nil)
	rel, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	if _, err := a.Acquire(context.Background()); err == nil || err.Reason != "timeout" {
		t.Fatalf("parked request did not time out: %v", err)
	}
}

func TestAdmissionContextCancel(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxInFlight: 1, MaxWait: 4, WaitTimeout: time.Minute}, nil)
	rel, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	if _, err := a.Acquire(ctx); err == nil || err.Reason != "cancelled" {
		t.Fatalf("cancelled waiter not shed: %v", err)
	}
}

func TestAdmissionDraining(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxInFlight: 2, MaxWait: 2}, nil)
	rel, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	a.SetDraining(true)
	if !a.Shedding() {
		t.Fatal("draining controller does not report Shedding")
	}
	if _, err := a.Acquire(context.Background()); err == nil || err.Reason != "draining" {
		t.Fatalf("request during drain not shed: %v", err)
	}
	rel() // in-flight work still drains normally
	if a.InFlight() != 0 {
		t.Fatalf("inflight after drain release = %d", a.InFlight())
	}
}
