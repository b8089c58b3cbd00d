// Network soak: chaos campaign against the sharded network-facing serving
// tier (internal/netserve) over a real loopback listener. It exercises the
// full wire path — HTTP decode, header deadlines, tenant quotas,
// consistent-hash placement, cross-shard retries — down through each
// shard's serve.Server frontend, while injecting device-level chaos (slow
// readouts, mid-request crashes, deadline storms, monitoring ticks
// concurrent with traffic) AND a mid-campaign graceful shard drain, then
// audits the tier's contract:
//
//   - zero hung requests: every wire call answers within its own deadline
//     plus a fixed grace, drain or not;
//   - zero silent drops: admitted == terminal typed outcomes in the tier's
//     own accounting, received == invalid + quota + closed + admitted, and
//     admitted == terminal in every shard's serve.Server accounting;
//   - zero untyped outcomes: every reply carries a known error kind and the
//     tier's Internal counter stays at zero;
//   - traffic survives the drain: requests keep completing on the remaining
//     shard after shard-0 retires mid-campaign;
//   - bounded tail latency: the chaos pass's p99 stays within a fixed
//     envelope of a same-seed no-chaos baseline;
//   - zero leaked goroutines across listener start, drain and close.
package campaign

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"reramtest/internal/fleet"
	"reramtest/internal/hwcost"
	"reramtest/internal/loadgen"
	"reramtest/internal/netserve"
	"reramtest/internal/rng"
	"reramtest/internal/serve"
)

// NetSoakConfig parameterises one network chaos campaign.
type NetSoakConfig struct {
	// Shards and DevicesPerShard size the tier (shard-0 drains mid-campaign,
	// so Shards must be ≥ 2 for the post-drain gate to be satisfiable).
	Shards, DevicesPerShard int
	// Load is the traffic model (InDim is overwritten with the stock width).
	Load loadgen.Config
	// Fleet and Serve tune each shard's supervisor and frontend.
	Fleet fleet.Config
	Serve serve.Config
	// Net tunes the tier under test.
	Net netserve.Config

	// SlowP / SlowDelay / CrashP arm the device-level chaos tap (chaos pass
	// only): a readout stalls for SlowDelay with probability SlowP and
	// panics mid-request with probability CrashP.
	SlowP     float64
	SlowDelay time.Duration
	CrashP    float64

	// TickEvery runs a monitoring tick concurrently with every Nth wave's
	// traffic (0 disables ticks).
	TickEvery int
}

// NetSoakDrainAfter is the fraction of the campaign after which shard-0
// drains gracefully (chaos pass only).
const NetSoakDrainAfter = 0.5

// DefaultNetSoakConfig returns the smoke-scale network chaos campaign; the
// full gate runs the same shape with Load.Requests raised to ~10⁶ from
// cmd/monitor or cmd/loadgen.
func DefaultNetSoakConfig() NetSoakConfig {
	fcfg := soakFleetConfig()
	fcfg.BreakerCooldown = 2
	return NetSoakConfig{
		Shards: 2, DevicesPerShard: 2,
		Load: loadgen.Config{
			Requests: 600, Concurrency: 24,
			Tenants: []loadgen.TenantSpec{
				{Name: "alpha", Weight: 3, MaxRows: 3, MonitorP: 0.05},
				{Name: "beta", Weight: 2, MaxRows: 2},
				{Name: "gamma", Weight: 1, MaxRows: 1, MonitorP: 0.10},
			},
			DeadlineMs: 2000, StormEvery: 6, StormDeadlineMs: 2,
			Grace: 250 * time.Millisecond,
		},
		Fleet: fcfg,
		Serve: serve.Config{Workers: 4, QueueBulk: 64, QueueMonitor: 16,
			HedgeAfter: 5 * time.Millisecond, DefaultDeadline: 2 * time.Second},
		Net: netserve.Config{RetryMax: 1, MaxRows: 8,
			DefaultDeadline: 2 * time.Second, MaxDeadline: 5 * time.Second},
		SlowP: 0.05, SlowDelay: 10 * time.Millisecond,
		CrashP:    0.02,
		TickEvery: 4,
	}
}

// NetSoakResult is one network chaos campaign's trace; Failures computes
// every gate from it.
type NetSoakResult struct {
	Seed int64

	Baseline loadgen.Report // clean pass, same seeds
	Chaos    loadgen.Report // chaos pass: injections + mid-campaign drain

	Stats netserve.Stats // the chaos tier's final counters
	// Shards is the chaos tier's per-shard status after close; each shard's
	// serve.Server accounting must close (admitted == terminal).
	Shards []netserve.ShardStatus

	// Cost is the chaos tier's own response-granular hardware-cost ledger
	// (per tenant, per shard, fleet total); the cost gates reconcile it
	// against itself and against the client-observed spend in Chaos.Cost.
	Cost netserve.CostStats

	PostDrainOK int // requests completed after shard-0 drained
	Leaked      int // goroutines alive after close + settle

	// chaos census (chaos pass): proof the injections actually fired
	InjectedSlows, InjectedCrashes, Ticks int

	// Slack is what the p99 envelope allows on top of the baseline: one
	// injected stall plus the client's grace.
	Slack time.Duration
}

// p99Bound is the chaos pass's p99 envelope: chaos may cost one injected
// stall plus scheduling slack over an inflated baseline, but never an
// unbounded stall — that would mean hedging failed to route around the slow
// device.
func (r NetSoakResult) p99Bound() time.Duration {
	return max(4*r.Baseline.P(0.99), 5*time.Millisecond) + r.Slack
}

// Failures lists every violated gate (empty = campaign passed).
func (r NetSoakResult) Failures() []string {
	var fails []string
	st := r.Stats
	if r.Chaos.Hung > 0 {
		fails = append(fails, fmt.Sprintf("%d wire call(s) outlived deadline+grace", r.Chaos.Hung))
	}
	if drops := int64(st.Admitted) - int64(st.Terminal()); drops != 0 {
		fails = append(fails, fmt.Sprintf("accounting: admitted - terminal = %d (want 0)", drops))
	}
	for _, sh := range r.Shards {
		if gap := int64(sh.Stats.Admitted) - int64(sh.Stats.Terminal()); gap != 0 {
			fails = append(fails, fmt.Sprintf("accounting: %s admitted - terminal = %d (want 0)", sh.Name, gap))
		}
	}
	if gap := int64(st.Received) - int64(st.Invalid+st.QuotaRejected+st.ClosedRejected+st.Admitted); gap != 0 {
		fails = append(fails, fmt.Sprintf("accounting: received - classified = %d (want 0)", gap))
	}
	if untyped := r.Chaos.Untyped + int(st.Internal); untyped > 0 {
		fails = append(fails, fmt.Sprintf("%d outcome(s) outside the typed kind set", untyped))
	}
	if r.Leaked > 0 {
		fails = append(fails, fmt.Sprintf("%d goroutine(s) leaked past close", r.Leaked))
	}
	if p99, bound := r.Chaos.P(0.99), r.p99Bound(); p99 > bound {
		fails = append(fails, fmt.Sprintf("chaos p99 %v exceeds bound %v (baseline %v)",
			p99, bound, r.Baseline.P(0.99)))
	}
	if r.Chaos.OK == 0 {
		fails = append(fails, "chaos campaign completed zero requests")
	}
	if r.PostDrainOK == 0 {
		fails = append(fails, "zero requests completed after the shard drain")
	}
	if st.Drains == 0 {
		fails = append(fails, "chaos pass recorded no shard drain")
	}
	// cost-ledger reconciliation: the tier accumulates tenant, shard and
	// fleet totals from the same response stream, so the sums must agree
	// exactly — any gap means a response was costed in one ledger and not
	// another
	var tenantSum, shardSum hwcost.Cost
	for _, c := range r.Cost.Tenants {
		tenantSum.Add(c)
	}
	for _, c := range r.Cost.Shards {
		shardSum.Add(c)
	}
	if tenantSum != r.Cost.Fleet {
		fails = append(fails, fmt.Sprintf("cost ledger: Σ tenants %+v ≠ fleet %+v", tenantSum, r.Cost.Fleet))
	}
	if shardSum != r.Cost.Fleet {
		fails = append(fails, fmt.Sprintf("cost ledger: Σ shards %+v ≠ fleet %+v", shardSum, r.Cost.Fleet))
	}
	if r.Chaos.OK > 0 && r.Cost.Fleet.IsZero() {
		fails = append(fails, "metered tier completed requests but reported zero hardware cost")
	}
	// the client sums the cost field of every decoded ok body; each such body
	// is a response the tier also costed, so the client-observed ledger can
	// never exceed the tier's (it may trail it: answers the client abandoned
	// past its own deadline still ran on silicon)
	if !costWithin(r.Chaos.Cost, r.Cost.Fleet) {
		fails = append(fails, fmt.Sprintf("client-observed cost %+v exceeds the tier's fleet ledger %+v",
			r.Chaos.Cost, r.Cost.Fleet))
	}
	return fails
}

// String is the campaign's one-line report.
func (r NetSoakResult) String() string {
	st := r.Stats
	return fmt.Sprintf("seed %d: %s | ok %d/%d sent (degraded %d, post-drain %d) "+
		"| invalid %d quota %d deadline %d overload %d no-device %d faulted %d "+
		"| retries %d drains %d (auto %d) | slow %d crash %d ticks %d "+
		"| %.0f req/s | p99 %v (baseline %v, bound %v)",
		r.Seed, mark(len(r.Failures()) == 0), r.Chaos.OK, r.Chaos.Sent, r.Chaos.Degraded, r.PostDrainOK,
		st.Invalid, st.QuotaRejected, st.Deadlines, st.Overloaded, st.Unavailable, st.Faulted,
		st.Retries, st.Drains, st.AutoDrains, r.InjectedSlows, r.InjectedCrashes, r.Ticks,
		r.Chaos.Throughput, r.Chaos.P(0.99), r.Baseline.P(0.99), r.p99Bound())
}

// costWithin reports a ≤ b in every dimension.
func costWithin(a, b hwcost.Cost) bool {
	return a.ComputeCycles <= b.ComputeCycles &&
		a.DACConversions <= b.DACConversions &&
		a.ADCConversions <= b.ADCConversions &&
		a.CrossbarReads <= b.CrossbarReads &&
		a.CrossbarWrites <= b.CrossbarWrites &&
		a.EnergyFJ <= b.EnergyFJ &&
		a.BufferBytes <= b.BufferBytes
}

// RunNetSoak executes one seeded network chaos campaign: a clean baseline
// pass to calibrate the latency envelope, then the chaos pass with device
// injections armed and a graceful shard-0 drain at the campaign midpoint.
// Both passes run the identical seeded schedule over a live loopback
// listener. The returned result's Failures() is the gate.
func RunNetSoak(seed int64, cfg NetSoakConfig) (NetSoakResult, error) {
	if cfg.Shards < 2 || cfg.DevicesPerShard < 1 {
		return NetSoakResult{}, fmt.Errorf("campaign: net soak needs ≥ 2 shards and ≥ 1 device each, got %d×%d",
			cfg.Shards, cfg.DevicesPerShard)
	}
	if cfg.Load.Requests < 4 {
		return NetSoakResult{}, fmt.Errorf("campaign: net soak needs ≥ 4 requests, got %d", cfg.Load.Requests)
	}
	baseline, err := runNetPass(seed, cfg, false)
	if err != nil {
		return baseline, fmt.Errorf("campaign: net baseline pass: %w", err)
	}
	res, err := runNetPass(seed, cfg, true)
	if err != nil {
		return res, fmt.Errorf("campaign: net chaos pass: %w", err)
	}
	res.Baseline = baseline.Chaos
	return res, nil
}

// runNetPass stands up a fresh tier behind a loopback listener and drives
// the full seeded campaign through it, returning the pass's trace with its
// report in Chaos (RunNetSoak moves the clean pass's into Baseline). The
// campaign runs as two segments with distinct seed streams; the chaos pass
// drains shard-0 synchronously between them, so segment two's completions
// prove post-drain liveness.
func runNetPass(seed int64, cfg NetSoakConfig, chaosOn bool) (NetSoakResult, error) {
	res := NetSoakResult{Seed: seed, Slack: cfg.SlowDelay + cfg.Load.Grace}
	goroutinesBefore := runtime.NumGoroutine()

	r := rng.New(seed)
	chaos := &chaosInjector{r: r.Split(), enabled: chaosOn,
		slowP: cfg.SlowP, slowDelay: cfg.SlowDelay, crashP: cfg.CrashP}
	specs := make([]netserve.ShardSpec, cfg.Shards)
	for i := range specs {
		specs[i] = netserve.ShardSpec{
			Name:    fmt.Sprintf("shard-%d", i),
			Devices: engineDevices(r, cfg.DevicesPerShard, fmt.Sprintf("s%d", i), chaos),
			Fleet:   cfg.Fleet,
			Serve:   cfg.Serve,
		}
	}
	f, err := netserve.New(specs, cfg.Net)
	if err != nil {
		return res, err
	}
	hs := &http.Server{Handler: f.Handler()}
	// an error return tears the tier and the listener down here; after the
	// audited teardown below both calls are no-ops
	defer func() { f.Close(); hs.Close() }()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	target := loadgen.NewHTTPTarget("http://"+ln.Addr().String(), nil)

	// monitoring ticks ride the progress hook but run concurrently with the
	// next wave's traffic — the contention is part of the soak
	var tickWG sync.WaitGroup
	progress := func(done int) {
		if cfg.TickEvery > 0 && cfg.Load.Concurrency > 0 &&
			(done/cfg.Load.Concurrency)%cfg.TickEvery == 0 {
			res.Ticks++
			tickWG.Add(1)
			go func() { defer tickWG.Done(); f.Tick() }()
		}
	}

	lcfg := cfg.Load
	lcfg.InDim = StockInDim
	preDrain := int(float64(lcfg.Requests) * NetSoakDrainAfter)
	ctx := context.Background()

	seg1 := lcfg
	seg1.Requests = preDrain
	rep1, err := loadgen.Run(ctx, seed, target, seg1, progress)
	if err != nil {
		return res, err
	}
	if chaosOn {
		// the graceful drain under audit: shard-0 retires between segments
		// while the tier keeps its listener up
		if err := f.DrainShard("shard-0"); err != nil {
			return res, err
		}
	}
	seg2 := lcfg
	seg2.Requests = lcfg.Requests - preDrain
	rep2, err := loadgen.Run(ctx, seed+1, target, seg2, progress)
	if err != nil {
		return res, err
	}
	tickWG.Wait()
	res.Chaos = rep1
	res.Chaos.Merge(rep2)
	res.PostDrainOK = rep2.OK

	// teardown in dependency order: tier first (drains shards), then idle
	// client connections, then the listener, then the goroutine audit. The
	// client goes first because Shutdown gives a connection that was dialled
	// and never used five seconds before it counts it idle — all the time
	// this Shutdown has.
	f.Close()
	target.CloseIdle()
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	err = hs.Shutdown(sctx)
	scancel()
	if err != nil {
		return res, err
	}
	if serr := <-serveErr; serr != http.ErrServerClosed {
		return res, serr
	}
	res.Stats = f.Stats()
	res.Shards = f.Status()
	res.Cost = f.CostStats()
	chaos.mu.Lock()
	res.InjectedSlows, res.InjectedCrashes = chaos.slows, chaos.crashes
	chaos.mu.Unlock()

	settle := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore && time.Now().Before(settle) {
		time.Sleep(5 * time.Millisecond)
	}
	res.Leaked = max(runtime.NumGoroutine()-goroutinesBefore, 0)
	return res, nil
}
