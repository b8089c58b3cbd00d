// Serve soak: chaos campaign against the concurrent serving frontend
// (internal/serve). Where the fleet soak attacks the supervisor's durable
// state, this soak attacks the request path itself — seeded slow readouts,
// mid-request device crashes and deadline storms, driven from many client
// goroutines while monitoring ticks run concurrently — and audits the
// frontend's liveness contract:
//
//   - zero hung requests: every Do call returns within its own deadline plus
//     a fixed grace, chaos or not;
//   - zero silent drops: every admitted request terminates in a response or
//     a typed error (admitted == terminal in the server's own accounting,
//     and no error escapes the typed set);
//   - bounded tail latency: the chaos run's p99 stays within a fixed
//     envelope of a no-chaos baseline run of the same campaign — hedging
//     must actually cut around slow devices, not just exist;
//   - zero leaked goroutines: after Close the process is back to its
//     pre-campaign goroutine count.
package campaign

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"reramtest/internal/engine"
	"reramtest/internal/fleet"
	"reramtest/internal/models"
	"reramtest/internal/monitor"
	"reramtest/internal/nn"
	"reramtest/internal/reram"
	"reramtest/internal/rng"
	"reramtest/internal/serve"
	"reramtest/internal/tensor"
	"reramtest/internal/testgen"

	"context"

	"reramtest/internal/health"
)

// ServeSoakConfig parameterises one serving chaos campaign.
type ServeSoakConfig struct {
	// Devices is the fleet size; Rounds the number of traffic rounds.
	Devices, Rounds int
	// RequestsPerRound is the concurrent client fan-out per round.
	RequestsPerRound int
	// Fleet tunes the supervisor under the frontend.
	Fleet fleet.Config
	// Serve tunes the frontend under test.
	Serve serve.Config

	// SlowP is the per-readout probability of an injected SlowDelay stall.
	SlowP     float64
	SlowDelay time.Duration
	// CrashP is the per-readout probability of an injected mid-request panic.
	CrashP float64
	// StormEvery makes every Nth round a deadline storm: all of that round's
	// requests carry StormDeadline instead of the serve default (0 disables).
	StormEvery    int
	StormDeadline time.Duration
	// Grace is the hung-request watchdog slack: a Do call is hung if it
	// outlives its own deadline by more than this.
	Grace time.Duration
	// TickEvery runs a monitoring tick concurrently with every Nth round's
	// traffic (0 disables ticks).
	TickEvery int
}

// DefaultServeSoakConfig returns the gate-scale serving chaos campaign.
func DefaultServeSoakConfig() ServeSoakConfig {
	fcfg := fleet.DefaultConfig()
	fcfg.Health = DefaultConfig().Health // simulated time + flap-proof debounce
	fcfg.Monitor = monitor.DefaultConfig()
	fcfg.BreakerOpenAfter = 2
	fcfg.BreakerCooldown = 2
	fcfg.MinServing = 1
	return ServeSoakConfig{
		Devices: 3, Rounds: 12, RequestsPerRound: 24,
		Fleet: fcfg,
		Serve: serve.Config{Workers: 4, QueueBulk: 64, QueueMonitor: 16,
			HedgeAfter: 5 * time.Millisecond, DefaultDeadline: 2 * time.Second},
		SlowP: 0.08, SlowDelay: 10 * time.Millisecond,
		CrashP:     0.03,
		StormEvery: 5, StormDeadline: 2 * time.Millisecond,
		Grace:     250 * time.Millisecond,
		TickEvery: 3,
	}
}

// ServeSoakResult is one serving chaos campaign's trace and verdict inputs.
type ServeSoakResult struct {
	Seed     int64
	Requests int // Do calls attempted (chaos pass)

	Stats serve.Stats // the chaos server's final counters

	// gate inputs
	Hung          int    // Do calls that outlived deadline+grace
	SilentDrops   uint64 // admitted requests without a terminal outcome
	UntypedErrors int    // errors matching no serve sentinel
	Leaked        int    // goroutines still alive after Close + settle

	// chaos trace
	InjectedSlows, InjectedCrashes int
	StormRounds, Ticks             int

	// latency envelope
	BaselineP99, ChaosP99, P99Bound time.Duration
}

// Failures lists every violated gate (empty = campaign passed).
func (r ServeSoakResult) Failures() []string {
	var fails []string
	if r.Hung > 0 {
		fails = append(fails, fmt.Sprintf("%d hung request(s) outlived deadline+grace", r.Hung))
	}
	if r.SilentDrops > 0 {
		fails = append(fails, fmt.Sprintf("%d admitted request(s) silently dropped", r.SilentDrops))
	}
	if r.UntypedErrors > 0 {
		fails = append(fails, fmt.Sprintf("%d error(s) outside the typed set", r.UntypedErrors))
	}
	if r.Leaked > 0 {
		fails = append(fails, fmt.Sprintf("%d goroutine(s) leaked past Close", r.Leaked))
	}
	if r.ChaosP99 > r.P99Bound {
		fails = append(fails, fmt.Sprintf("chaos p99 %v exceeds bound %v (baseline %v)",
			r.ChaosP99, r.P99Bound, r.BaselineP99))
	}
	if r.Stats.Served == 0 {
		fails = append(fails, "chaos campaign served zero requests")
	}
	return fails
}

// chaosInjector perturbs device readouts from one seeded stream, shared by
// every device (attempt goroutines draw concurrently, so it locks).
type chaosInjector struct {
	mu        sync.Mutex
	r         *rng.RNG
	enabled   bool
	slowP     float64
	slowDelay time.Duration
	crashP    float64
	slows     int
	crashes   int
}

func (c *chaosInjector) disturb() {
	c.mu.Lock()
	if !c.enabled {
		c.mu.Unlock()
		return
	}
	slow := c.r.Bernoulli(c.slowP)
	crash := c.r.Bernoulli(c.crashP)
	if slow {
		c.slows++
	}
	if crash {
		c.crashes++
	}
	delay := c.slowDelay
	c.mu.Unlock()
	if slow {
		time.Sleep(delay)
	}
	if crash {
		panic("campaign: injected mid-request crash")
	}
}

// soakDevice is an engine-backed accelerator with a chaos tap on its readout
// path. The engine is single-goroutine, which is fine: the fleet Station
// wrapping this device serialises all access.
type soakDevice struct {
	id    string
	net   *nn.Network
	pats  *testgen.PatternSet
	eng   *engine.Engine
	chaos *chaosInjector
}

func (d *soakDevice) ID() string                    { return d.id }
func (d *soakDevice) Reference() *nn.Network        { return d.net }
func (d *soakDevice) Patterns() *testgen.PatternSet { return d.pats }
func (d *soakDevice) Repairer() health.Repairer     { return nil }

// CostCounter implements fleet.CostMetered via the compiled engine's meter.
func (d *soakDevice) CostCounter() *reram.Counter { return d.eng.Counter() }
func (d *soakDevice) Infer() monitor.Infer {
	return func(x *tensor.Tensor) *tensor.Tensor {
		if d.chaos != nil {
			d.chaos.disturb()
		}
		return d.eng.Probs(x)
	}
}

// RunServeSoak executes one seeded serving chaos campaign: a no-chaos
// baseline pass to calibrate the latency envelope, then the chaos pass with
// all injections armed. The returned result's Failures() is the gate.
func RunServeSoak(seed int64, cfg ServeSoakConfig) (ServeSoakResult, error) {
	if cfg.Devices < 1 || cfg.Rounds < 1 || cfg.RequestsPerRound < 1 {
		return ServeSoakResult{}, fmt.Errorf("campaign: serve soak needs ≥ 1 device, round and request, got %+v",
			[3]int{cfg.Devices, cfg.Rounds, cfg.RequestsPerRound})
	}
	res := ServeSoakResult{Seed: seed}

	baseline, err := runServePass(seed, cfg, false)
	if err != nil {
		return res, fmt.Errorf("campaign: serve baseline pass: %w", err)
	}
	chaos, err := runServePass(seed, cfg, true)
	if err != nil {
		return res, fmt.Errorf("campaign: serve chaos pass: %w", err)
	}

	res.Requests = chaos.requests
	res.Stats = chaos.stats
	res.Hung = chaos.hung
	res.SilentDrops = chaos.stats.Admitted - chaos.stats.Terminal()
	res.UntypedErrors = chaos.untyped
	res.Leaked = chaos.leaked
	res.InjectedSlows = chaos.slows
	res.InjectedCrashes = chaos.crashes
	res.StormRounds = chaos.storms
	res.Ticks = chaos.ticks
	res.BaselineP99 = p99(baseline.latencies)
	res.ChaosP99 = p99(chaos.latencies)
	// the envelope: chaos may cost one injected stall plus scheduling slack
	// over an inflated baseline, but never an unbounded stall — that would
	// mean hedging failed to route around the slow device
	floor := 4 * res.BaselineP99
	if floor < 5*time.Millisecond {
		floor = 5 * time.Millisecond
	}
	res.P99Bound = floor + cfg.SlowDelay + cfg.Grace
	return res, nil
}

// passTrace is one pass's raw measurements.
type passTrace struct {
	requests       int
	stats          serve.Stats
	hung, untyped  int
	slows, crashes int
	storms, ticks  int
	leaked         int
	latencies      []time.Duration
}

// runServePass drives one full campaign against a fresh server.
func runServePass(seed int64, cfg ServeSoakConfig, chaosOn bool) (passTrace, error) {
	var tr passTrace
	goroutinesBefore := runtime.NumGoroutine()

	r := rng.New(seed)
	chaos := &chaosInjector{r: r.Split(), enabled: chaosOn,
		slowP: cfg.SlowP, slowDelay: cfg.SlowDelay, crashP: cfg.CrashP}
	pats := &testgen.PatternSet{
		Name: "serve-soak", Method: "plain",
		X:      tensor.RandUniform(r.Split(), 0, 1, 8, 16),
		Labels: make([]int, 8),
	}
	ref := models.MLP(rng.New(1), 16, []int{24, 16}, 6)
	devices := make([]fleet.Device, cfg.Devices)
	for i := range devices {
		net := ref.Clone()
		devices[i] = &soakDevice{
			id: fmt.Sprintf("accel-%02d", i), net: net, pats: pats,
			eng:   engine.MustCompile(net, engine.Options{Workers: 1}),
			chaos: chaos,
		}
	}

	srv, err := serve.New(devices, cfg.Fleet, cfg.Serve, nil)
	if err != nil {
		return tr, err
	}

	reqRNG := r.Split()
	var mu sync.Mutex // guards the trace fields updated by client goroutines

	for round := 1; round <= cfg.Rounds; round++ {
		storm := chaosOn && cfg.StormEvery > 0 && round%cfg.StormEvery == 0
		if storm {
			tr.storms++
		}

		var tickWG sync.WaitGroup
		if cfg.TickEvery > 0 && round%cfg.TickEvery == 0 {
			// monitoring runs concurrently with this round's traffic — the
			// contention between ticks and serving is exactly what we soak
			tr.ticks++
			tickWG.Add(1)
			go func() {
				defer tickWG.Done()
				srv.Tick()
			}()
		}

		// pre-generate this round's batches from the seeded stream (the RNG
		// is not shared with the client goroutines)
		batches := make([]*tensor.Tensor, cfg.RequestsPerRound)
		for q := range batches {
			batches[q] = tensor.RandUniform(reqRNG.Split(), 0, 1, 1+q%3, 16)
		}

		var wg sync.WaitGroup
		for q := 0; q < cfg.RequestsPerRound; q++ {
			wg.Add(1)
			go func(q int) {
				defer wg.Done()
				prio := serve.Bulk
				if q == 0 {
					prio = serve.Monitor // every round carries test-pattern traffic
				}
				deadline := cfg.Serve.DefaultDeadline
				ctx := context.Background()
				var cancel context.CancelFunc
				if storm {
					deadline = cfg.StormDeadline
					ctx, cancel = context.WithTimeout(ctx, deadline)
					defer cancel()
				}
				start := time.Now()
				_, err := srv.Do(ctx, batches[q], prio)
				elapsed := time.Since(start)

				mu.Lock()
				defer mu.Unlock()
				tr.requests++
				if elapsed > deadline+cfg.Grace {
					tr.hung++
				}
				if err != nil && !errors.Is(err, serve.ErrOverloaded) &&
					!errors.Is(err, serve.ErrDeadline) && !errors.Is(err, serve.ErrNoDevices) &&
					!errors.Is(err, serve.ErrFaulted) && !errors.Is(err, serve.ErrClosed) {
					tr.untyped++
				}
				if !storm {
					tr.latencies = append(tr.latencies, elapsed)
				}
			}(q)
		}
		wg.Wait()
		tickWG.Wait()
	}

	if err := srv.Close(); err != nil {
		return tr, err
	}
	tr.stats = srv.Stats()
	tr.slows, tr.crashes = chaos.slows, chaos.crashes

	// settle-wait for background attempt goroutines the runtime hasn't
	// reaped yet, then count anything still alive as leaked
	settle := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore && time.Now().Before(settle) {
		time.Sleep(5 * time.Millisecond)
	}
	if extra := runtime.NumGoroutine() - goroutinesBefore; extra > 0 {
		tr.leaked = extra
	}
	return tr, nil
}

// p99 returns the 99th-percentile of samples (0 when empty).
func p99(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := len(sorted) * 99 / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
