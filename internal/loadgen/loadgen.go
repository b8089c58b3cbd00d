// Package loadgen is the seeded load generator for the network-facing
// serving tier (internal/netserve): multi-tenant request campaigns with
// weighted tenant mixes, mixed priorities, per-request deadlines, and
// scheduled fault storms (waves of near-impossible deadlines), sustained to
// ~10⁶ requests from one seed. The same engine drives the standalone
// cmd/loadgen binary against any live endpoint and campaign.RunNetSoak's
// acceptance gate against an in-test listener — one traffic model, two
// harnesses.
//
// Determinism: the request *schedule* (tenant sequence, batch shapes,
// priorities, storm waves, payloads) is a pure function of the seed.
// Completion order and latencies are not — that is the point of measuring a
// live tier — but the accounting identities the soak audits (every request
// lands in exactly one outcome class, known kinds only) hold regardless.
package loadgen

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"reramtest/internal/hwcost"
	"reramtest/internal/rng"
)

// TenantSpec is one tenant's share of the traffic mix.
type TenantSpec struct {
	// Name keys the tenant's quota bucket and hash-ring placement.
	Name string
	// Weight is the tenant's relative share of requests (≤ 0 → 1).
	Weight float64
	// MaxRows bounds this tenant's per-request batch rows, drawn uniformly
	// from [1, MaxRows] (0 → 3).
	MaxRows int
	// MonitorP is the fraction of this tenant's requests sent at monitor
	// priority (test patterns / health probes).
	MonitorP float64
}

// Config parameterises one campaign.
type Config struct {
	// Tenants is the traffic mix (empty → one default tenant).
	Tenants []TenantSpec
	// Requests is the campaign size.
	Requests int
	// Concurrency is the in-flight fan-out (0 → 16).
	Concurrency int
	// InDim is the model input width requests must carry.
	InDim int
	// DeadlineMs rides every ordinary request (0 → 1000).
	DeadlineMs int
	// StormEvery makes every Nth wave a fault storm carrying StormDeadlineMs
	// instead (0 disables storms).
	StormEvery int
	// StormDeadlineMs is the storm deadline (0 → 2).
	StormDeadlineMs int
	// Grace is the hung-request slack: a request whose round trip outlives
	// its deadline by more than this counts as hung (0 → 250ms).
	Grace time.Duration
}

func (c Config) withDefaults() Config {
	if len(c.Tenants) == 0 {
		c.Tenants = []TenantSpec{{Name: "default"}}
	}
	for i := range c.Tenants {
		if c.Tenants[i].Weight <= 0 {
			c.Tenants[i].Weight = 1
		}
		if c.Tenants[i].MaxRows == 0 {
			c.Tenants[i].MaxRows = 3
		}
	}
	if c.Concurrency == 0 {
		c.Concurrency = 16
	}
	if c.DeadlineMs == 0 {
		c.DeadlineMs = 1000
	}
	if c.StormDeadlineMs == 0 {
		c.StormDeadlineMs = 2
	}
	if c.Grace == 0 {
		c.Grace = 250 * time.Millisecond
	}
	return c
}

// Validate rejects campaigns the generator cannot run.
func (c Config) Validate() error {
	if c.Requests < 1 {
		return fmt.Errorf("loadgen: Requests must be ≥ 1, got %d", c.Requests)
	}
	if c.InDim < 1 {
		return fmt.Errorf("loadgen: InDim must be ≥ 1, got %d", c.InDim)
	}
	if c.Concurrency < 0 || c.DeadlineMs < 0 || c.StormDeadlineMs < 0 || c.StormEvery < 0 {
		return fmt.Errorf("loadgen: negative knob")
	}
	return nil
}

// Request is one generated request, scheduled before any traffic flies.
type Request struct {
	Tenant     string
	Monitor    bool // monitor priority
	Input      [][]float64
	DeadlineMs int
	Storm      bool // part of a fault-storm wave
}

// Outcome is the terminal classification of one request, as observed from
// the client side.
type Outcome struct {
	// Kind is the wire error kind ("ok", "deadline", "quota", …) or one of
	// the client-side kinds "hung" (the transport gave up past
	// deadline+grace) and "transport" (connection-level failure).
	Kind string
	// Code is the HTTP status (0 for client-side failures).
	Code int
	// Degraded flags an ok answer served from degraded silicon.
	Degraded bool
	// Cost is the hardware spend the tier reported for the winning attempt
	// (zero for failed requests or unmetered tiers). Summed into the report's
	// client-observed cost ledger, which the soak gates reconcile against the
	// tier's own per-tenant table.
	Cost hwcost.Cost
}

// Target serves one generated request and classifies the result. Both the
// HTTP client (NewHTTPTarget) and in-process adapters implement it.
type Target interface {
	Serve(ctx context.Context, req Request) Outcome
}

// Report is one campaign's aggregate result.
type Report struct {
	Sent      int
	OK        int
	Degraded  int
	Hung      int
	Transport int
	Untyped   int            // outcomes outside the known-kind contract
	ByKind    map[string]int // every outcome kind → count
	ByTenant  map[string]int // requests sent per tenant
	Storms    int            // storm waves run

	// Cost is the total hardware spend the tier reported across this
	// campaign's ok answers, and CostByTenant its per-tenant split — the
	// client-observed side of the tier's cost ledger.
	Cost         hwcost.Cost
	CostByTenant map[string]hwcost.Cost

	// Latencies holds the non-storm round-trip times, in completion order —
	// raw so a soak can pool baseline and chaos passes before computing
	// percentiles.
	Latencies []time.Duration

	Elapsed    time.Duration
	Throughput float64 // requests/sec over the whole campaign
}

// Merge folds other into r. Counters and cost ledgers add, latency samples
// pool, elapsed times sum, and throughput is recomputed over the merged
// campaign. Merging is associative and commutative up to latency-sample order
// (all scalar fields are plain sums), so soaks can fold per-phase reports in
// any grouping and reconcile the same totals.
func (r *Report) Merge(other Report) {
	r.Sent += other.Sent
	r.OK += other.OK
	r.Degraded += other.Degraded
	r.Hung += other.Hung
	r.Transport += other.Transport
	r.Untyped += other.Untyped
	r.Storms += other.Storms
	if r.ByKind == nil {
		r.ByKind = make(map[string]int)
	}
	for k, n := range other.ByKind {
		r.ByKind[k] += n
	}
	if r.ByTenant == nil {
		r.ByTenant = make(map[string]int)
	}
	for t, n := range other.ByTenant {
		r.ByTenant[t] += n
	}
	r.Cost.Add(other.Cost)
	if len(other.CostByTenant) > 0 && r.CostByTenant == nil {
		r.CostByTenant = make(map[string]hwcost.Cost)
	}
	for t, c := range other.CostByTenant {
		merged := r.CostByTenant[t]
		merged.Add(c)
		r.CostByTenant[t] = merged
	}
	r.Latencies = append(r.Latencies, other.Latencies...)
	r.Elapsed += other.Elapsed
	if secs := r.Elapsed.Seconds(); secs > 0 {
		r.Throughput = float64(r.Sent) / secs
	}
}

// P returns the q-quantile (0 < q ≤ 1) of the non-storm latencies.
func (r Report) P(q float64) time.Duration {
	if len(r.Latencies) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), r.Latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(float64(len(sorted)) * q)
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// String renders the report on a few lines.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sent %d in %v (%.0f req/s): ok %d (degraded %d), hung %d, transport %d, untyped %d\n",
		r.Sent, r.Elapsed.Round(time.Millisecond), r.Throughput, r.OK, r.Degraded, r.Hung, r.Transport, r.Untyped)
	kinds := make([]string, 0, len(r.ByKind))
	for k := range r.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, "  %-12s %d\n", k, r.ByKind[k])
	}
	fmt.Fprintf(&b, "  p50 %v  p95 %v  p99 %v", r.P(0.50), r.P(0.95), r.P(0.99))
	return b.String()
}

// knownKinds is the closed outcome contract: the tier's wire kinds plus the
// two client-side classifications.
var knownKinds = map[string]bool{
	"ok": true, "invalid": true, "quota": true, "closed": true,
	"overloaded": true, "deadline": true, "no_devices": true, "faulted": true,
	"hung": true, "transport": true,
}

// Generate materialises the campaign's full request schedule from the seed.
// The schedule is deterministic; Run preserves per-wave ordering.
func Generate(seed int64, cfg Config) ([]Request, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := rng.New(seed)
	totalWeight := 0.0
	for _, t := range cfg.Tenants {
		totalWeight += t.Weight
	}
	reqs := make([]Request, cfg.Requests)
	for i := range reqs {
		wave := i / cfg.Concurrency
		storm := cfg.StormEvery > 0 && wave > 0 && wave%cfg.StormEvery == 0
		// weighted tenant pick from the seeded stream
		pick := r.Float64() * totalWeight
		ten := cfg.Tenants[len(cfg.Tenants)-1]
		for _, t := range cfg.Tenants {
			if pick < t.Weight {
				ten = t
				break
			}
			pick -= t.Weight
		}
		rows := 1 + r.Intn(ten.MaxRows)
		input := make([][]float64, rows)
		for q := range input {
			row := make([]float64, cfg.InDim)
			r.FillUniform(row, 0, 1)
			input[q] = row
		}
		deadline := cfg.DeadlineMs
		if storm {
			deadline = cfg.StormDeadlineMs
		}
		reqs[i] = Request{
			Tenant:     ten.Name,
			Monitor:    r.Bernoulli(ten.MonitorP),
			Input:      input,
			DeadlineMs: deadline,
			Storm:      storm,
		}
	}
	return reqs, nil
}

// Run drives one seeded campaign against target and aggregates the outcomes.
// Progress, when non-nil, is called between waves with the number of
// requests completed so far — the hook soaks use to trigger mid-campaign
// events (a shard drain, a chaos phase change) at a deterministic point in
// the schedule.
func Run(ctx context.Context, seed int64, target Target, cfg Config, progress func(done int)) (Report, error) {
	cfg = cfg.withDefaults()
	reqs, err := Generate(seed, cfg)
	if err != nil {
		return Report{}, err
	}
	rep := Report{ByKind: make(map[string]int), ByTenant: make(map[string]int),
		CostByTenant: make(map[string]hwcost.Cost)}
	var mu sync.Mutex
	start := time.Now()

	for waveStart := 0; waveStart < len(reqs); waveStart += cfg.Concurrency {
		if ctx.Err() != nil {
			return rep, ctx.Err()
		}
		end := waveStart + cfg.Concurrency
		if end > len(reqs) {
			end = len(reqs)
		}
		wave := reqs[waveStart:end]
		if wave[0].Storm {
			rep.Storms++
		}
		var wg sync.WaitGroup
		for _, req := range wave {
			wg.Add(1)
			go func(req Request) {
				defer wg.Done()
				deadline := time.Duration(req.DeadlineMs) * time.Millisecond
				// the transport gives the tier until deadline+grace to answer;
				// past that the request is hung by definition
				rctx, cancel := context.WithTimeout(ctx, deadline+cfg.Grace)
				defer cancel()
				t0 := time.Now()
				out := target.Serve(rctx, req)
				elapsed := time.Since(t0)
				if out.Kind == "" {
					out.Kind = "transport"
				}
				if elapsed > deadline+cfg.Grace {
					out.Kind = "hung"
				}

				mu.Lock()
				defer mu.Unlock()
				rep.Sent++
				rep.ByTenant[req.Tenant]++
				rep.ByKind[out.Kind]++
				switch out.Kind {
				case "ok":
					rep.OK++
					if out.Degraded {
						rep.Degraded++
					}
					if !out.Cost.IsZero() {
						rep.Cost.Add(out.Cost)
						tc := rep.CostByTenant[req.Tenant]
						tc.Add(out.Cost)
						rep.CostByTenant[req.Tenant] = tc
					}
				case "hung":
					rep.Hung++
				case "transport":
					rep.Transport++
				}
				if !knownKinds[out.Kind] {
					rep.Untyped++
				}
				if !req.Storm {
					rep.Latencies = append(rep.Latencies, elapsed)
				}
			}(req)
		}
		wg.Wait()
		if progress != nil {
			progress(end)
		}
	}
	rep.Elapsed = time.Since(start)
	if secs := rep.Elapsed.Seconds(); secs > 0 {
		rep.Throughput = float64(rep.Sent) / secs
	}
	return rep, nil
}
