package netserve

import (
	"fmt"
	"sync"
	"time"
)

// QuotaConfig tunes per-tenant admission quotas: a classic token bucket,
// denominated in batch rows (a 16-row request spends 16 tokens), layered in
// front of the shards' dual-priority queues. Quotas answer a different
// question than queue bounds: the queues protect the devices from aggregate
// overload, the buckets protect tenants from each other — one tenant
// flooding the tier burns its own bucket dry and starts eating 429s while
// everyone else's traffic still lands.
type QuotaConfig struct {
	// Rate is each tenant's sustained allowance in rows per second
	// (0 disables quotas entirely).
	Rate float64
	// Burst is the bucket depth in rows (0 → max(Rate, 1)): how far a tenant
	// may briefly exceed its sustained rate.
	Burst float64
}

// Validate rejects quota configurations the tier cannot operate under.
func (q QuotaConfig) Validate() error {
	if q.Rate < 0 || q.Burst < 0 {
		return fmt.Errorf("netserve: quota Rate and Burst must be ≥ 0")
	}
	return nil
}

func (q QuotaConfig) withDefaults() QuotaConfig {
	if q.Rate > 0 && q.Burst == 0 {
		q.Burst = q.Rate
		if q.Burst < 1 {
			q.Burst = 1
		}
	}
	return q
}

// quotaTable holds one token bucket per tenant, created lazily on first
// sight. All methods are safe for concurrent use.
type quotaTable struct {
	mu      sync.Mutex
	cfg     QuotaConfig
	now     func() time.Time // injectable clock for deterministic tests
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

func newQuotaTable(cfg QuotaConfig, now func() time.Time) *quotaTable {
	if now == nil {
		now = time.Now
	}
	return &quotaTable{cfg: cfg.withDefaults(), now: now, buckets: make(map[string]*bucket)}
}

// Allow charges cost rows against tenant's bucket: true admits the request,
// false is a quota rejection. A disabled quota (Rate 0) admits everything. A
// cost larger than the whole bucket depth can never be admitted — Allow
// returns false immediately rather than stalling the tenant forever.
func (t *quotaTable) Allow(tenant string, cost float64) bool {
	if t.cfg.Rate <= 0 {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	b, ok := t.buckets[tenant]
	if !ok {
		b = &bucket{tokens: t.cfg.Burst, last: now}
		t.buckets[tenant] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * t.cfg.Rate
		if b.tokens > t.cfg.Burst {
			b.tokens = t.cfg.Burst
		}
	}
	b.last = now
	if b.tokens < cost {
		return false
	}
	b.tokens -= cost
	return true
}
