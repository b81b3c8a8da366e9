package serve

import (
	"math"
	"sync"
	"time"
)

// Quota is a per-tenant token-bucket budget: each admitted job costs
// one token, tokens refill at Rate per second up to Burst. The zero
// value disables quotas. Layered under the per-job resource caps
// (Config.MaxDeadline / MaxWorkers), it bounds how much verification
// time one tenant can claim per wall-clock second regardless of how the
// individual jobs are bounded.
type Quota struct {
	// Rate is tokens (admitted jobs) per second. <= 0 disables quotas.
	Rate float64
	// Burst is the bucket capacity. <= 0 defaults to max(1, Rate).
	Burst float64
}

// enabled reports whether the quota does anything.
func (q Quota) enabled() bool { return q.Rate > 0 }

// burst returns the effective bucket capacity.
func (q Quota) burst() float64 {
	if q.Burst > 0 {
		return q.Burst
	}
	return math.Max(1, q.Rate)
}

// bucket is one tenant's token state.
type bucket struct {
	tokens float64
	last   time.Time
}

// tenantQuotas tracks a token bucket per tenant. The clock is
// injectable so the refill math is deterministic under test.
type tenantQuotas struct {
	mu      sync.Mutex
	q       Quota
	now     func() time.Time
	buckets map[string]*bucket
}

func newTenantQuotas(q Quota, now func() time.Time) *tenantQuotas {
	if now == nil {
		now = time.Now
	}
	return &tenantQuotas{q: q, now: now, buckets: map[string]*bucket{}}
}

// admit consumes one token from the tenant's bucket. When the bucket is
// empty it reports false and how long until the next token accrues.
func (t *tenantQuotas) admit(tenant string) (ok bool, retryAfter time.Duration) {
	if t == nil || !t.q.enabled() {
		return true, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	b := t.buckets[tenant]
	if b == nil {
		b = &bucket{tokens: t.q.burst(), last: now}
		t.buckets[tenant] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(t.q.burst(), b.tokens+dt*t.q.Rate)
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration(math.Ceil((1 - b.tokens) / t.q.Rate * float64(time.Second)))
}
