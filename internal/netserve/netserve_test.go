package netserve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"reramtest/internal/engine"
	"reramtest/internal/fleet"
	"reramtest/internal/health"
	"reramtest/internal/models"
	"reramtest/internal/monitor"
	"reramtest/internal/nn"
	"reramtest/internal/rng"
	"reramtest/internal/serve"
	"reramtest/internal/tensor"
	"reramtest/internal/testgen"
)

// tierDevice is a scripted accelerator for tier tests: injectable drift
// (confidence shift), crashes and slow readouts, mutex-guarded because tests
// mutate the script while the tier drives traffic.
type tierDevice struct {
	id       string
	net      *nn.Network
	patterns *testgen.PatternSet

	mu         sync.Mutex
	shift      float64
	crash      bool
	crashBelow float64 // crash on a batch whose first value is below this
	delay      time.Duration
}

func (d *tierDevice) ID() string                    { return d.id }
func (d *tierDevice) Reference() *nn.Network        { return d.net }
func (d *tierDevice) Patterns() *testgen.PatternSet { return d.patterns }
func (d *tierDevice) Repairer() health.Repairer     { return nil }

func (d *tierDevice) set(f func(*tierDevice)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f(d)
}

func (d *tierDevice) Infer() monitor.Infer {
	return func(x *tensor.Tensor) *tensor.Tensor {
		d.mu.Lock()
		shift, crash, below, delay := d.shift, d.crash, d.crashBelow, d.delay
		d.mu.Unlock()
		if delay > 0 {
			time.Sleep(delay)
		}
		// x is read only after the delay, as late as an abandoned attempt can
		if crash || x.Data()[0] < below {
			panic("tierDevice: injected crash")
		}
		probs := probsOf(d.net, x)
		if shift != 0 {
			probs.Apply(func(v float64) float64 { return v + shift })
		}
		return probs
	}
}

func tierPatterns() *testgen.PatternSet {
	return &testgen.PatternSet{
		Name: "tier", Method: "plain",
		X:      tensor.RandUniform(rng.New(2), 0, 1, 8, 16),
		Labels: make([]int, 8),
	}
}

func tierFleetConfig() fleet.Config {
	cfg := fleet.DefaultConfig()
	cfg.Health.Sleep = func(time.Duration) {}
	return cfg
}

// newTier builds a frontend of `shards` shards × `devPerShard` devices and
// returns the frontend plus the devices by shard.
func newTier(t testing.TB, shards, devPerShard int, cfg Config) (*Frontend, [][]*tierDevice) {
	t.Helper()
	return newTierServe(t, shards, devPerShard, cfg, serve.Config{Workers: 2, HedgeAfter: time.Hour})
}

// newTierServe is newTier with the shards' serving configuration chosen.
func newTierServe(t testing.TB, shards, devPerShard int, cfg Config, scfg serve.Config) (*Frontend, [][]*tierDevice) {
	t.Helper()
	pats := tierPatterns()
	ref := models.MLP(rng.New(1), 16, []int{12}, 5)
	devs := make([][]*tierDevice, shards)
	specs := make([]ShardSpec, shards)
	for s := 0; s < shards; s++ {
		wrapped := make([]fleet.Device, devPerShard)
		devs[s] = make([]*tierDevice, devPerShard)
		for i := 0; i < devPerShard; i++ {
			d := &tierDevice{id: fmt.Sprintf("s%d-dev%d", s, i), net: ref.Clone(), patterns: pats}
			devs[s][i] = d
			wrapped[i] = d
		}
		specs[s] = ShardSpec{
			Name:    fmt.Sprintf("shard-%d", s),
			Devices: wrapped,
			Fleet:   tierFleetConfig(),
			Serve:   scfg,
		}
	}
	f, err := New(specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f, devs
}

func tierBatch(rows int) *tensor.Tensor {
	return tensor.RandUniform(rng.New(7), 0, 1, rows, 16)
}

// tenantFor probes tenant names until one hashes onto the wanted shard.
func tenantFor(t *testing.T, f *Frontend, shard string) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("tenant-%d", i)
		if sh := f.pick(name, nil); sh != nil && sh.name == shard {
			return name
		}
	}
	t.Fatalf("no tenant hashes onto %s", shard)
	return ""
}

func TestHashTenantAffinity(t *testing.T) {
	f, _ := newTier(t, 3, 1, Config{})
	defer f.Close()
	for _, tenant := range []string{"alice", "bob", "carol", "dave"} {
		var home string
		for i := 0; i < 5; i++ {
			res, err := f.Do(context.Background(), Request{Tenant: tenant, X: tierBatch(1)})
			if err != nil {
				t.Fatal(err)
			}
			if home == "" {
				home = res.Shard
			} else if res.Shard != home {
				t.Fatalf("tenant %s moved from %s to %s with no drain", tenant, home, res.Shard)
			}
		}
	}
}

func TestQuotaIsolatesTenants(t *testing.T) {
	f, _ := newTier(t, 2, 1, Config{Quota: QuotaConfig{Rate: 0.001, Burst: 3}})
	defer f.Close()

	// greedy burns its 3-row bucket, then eats ErrQuota
	for i := 0; i < 3; i++ {
		if _, err := f.Do(context.Background(), Request{Tenant: "greedy", X: tierBatch(1)}); err != nil {
			t.Fatalf("in-quota request %d: %v", i, err)
		}
	}
	_, err := f.Do(context.Background(), Request{Tenant: "greedy", X: tierBatch(1)})
	if !errors.Is(err, ErrQuota) {
		t.Fatalf("over-quota request returned %v, want ErrQuota", err)
	}
	// a different tenant's bucket is untouched
	if _, err := f.Do(context.Background(), Request{Tenant: "modest", X: tierBatch(1)}); err != nil {
		t.Fatalf("other tenant starved by greedy's quota: %v", err)
	}
	st := f.Stats()
	if st.QuotaRejected != 1 {
		t.Fatalf("quota rejections: %+v", st)
	}
	if st.Received != st.Invalid+st.QuotaRejected+st.ClosedRejected+st.Admitted {
		t.Fatalf("admission accounting broken: %+v", st)
	}
}

func TestQuotaBucketRefills(t *testing.T) {
	clock := time.Unix(0, 0)
	q := newQuotaTable(QuotaConfig{Rate: 10, Burst: 5}, func() time.Time { return clock })
	if !q.Allow("t", 5) {
		t.Fatal("full bucket refused its burst")
	}
	if q.Allow("t", 1) {
		t.Fatal("empty bucket admitted")
	}
	clock = clock.Add(300 * time.Millisecond) // refills 3 rows
	if !q.Allow("t", 3) {
		t.Fatal("refilled bucket refused 3 rows")
	}
	if q.Allow("t", 1) {
		t.Fatal("bucket over-refilled")
	}
	clock = clock.Add(time.Hour)
	if q.Allow("t", 6) {
		t.Fatal("bucket exceeded its burst depth after a long idle")
	}
	if !q.Allow("t", 5) {
		t.Fatal("bucket did not cap at burst")
	}
}

func TestCrossShardRetryOnFaultedShard(t *testing.T) {
	f, devs := newTier(t, 2, 1, Config{RetryMax: 1})
	defer f.Close()
	tenant := tenantFor(t, f, "shard-0")
	devs[0][0].set(func(d *tierDevice) { d.crash = true })

	res, err := f.Do(context.Background(), Request{Tenant: tenant, X: tierBatch(1)})
	if err != nil {
		t.Fatalf("request not rescued by cross-shard retry: %v", err)
	}
	if res.Shard != "shard-1" || res.Attempts != 2 {
		t.Fatalf("rescue came from %s in %d attempts, want shard-1 in 2", res.Shard, res.Attempts)
	}
	if st := f.Stats(); st.Retries != 1 || st.Completed != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestMonitorClassNeverRetried(t *testing.T) {
	f, devs := newTier(t, 2, 1, Config{RetryMax: 1})
	defer f.Close()
	tenant := tenantFor(t, f, "shard-0")
	devs[0][0].set(func(d *tierDevice) { d.crash = true })

	_, err := f.Do(context.Background(), Request{Tenant: tenant, Priority: serve.Monitor, X: tierBatch(1)})
	if !errors.Is(err, serve.ErrFaulted) {
		t.Fatalf("monitor-class fault returned %v, want ErrFaulted surfaced unretried", err)
	}
	if st := f.Stats(); st.Retries != 0 {
		t.Fatalf("monitor-class request was retried: %+v", st)
	}
}

func TestDeadlineNeverRetried(t *testing.T) {
	f, devs := newTier(t, 2, 1, Config{RetryMax: 1})
	defer f.Close()
	for _, row := range devs {
		row[0].set(func(d *tierDevice) { d.delay = 200 * time.Millisecond })
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := f.Do(ctx, Request{Tenant: "t", X: tierBatch(1)})
	if !errors.Is(err, serve.ErrDeadline) {
		t.Fatalf("expired request returned %v, want ErrDeadline", err)
	}
	if st := f.Stats(); st.Retries != 0 || st.Deadlines != 1 {
		t.Fatalf("deadline expiry was retried: %+v", st)
	}
}

func TestDrainShardRebalancesTenants(t *testing.T) {
	f, _ := newTier(t, 2, 1, Config{})
	defer f.Close()
	tenant := tenantFor(t, f, "shard-0")

	if err := f.DrainShard("shard-0"); err != nil {
		t.Fatal("drain:", err)
	}
	res, err := f.Do(context.Background(), Request{Tenant: tenant, X: tierBatch(1)})
	if err != nil {
		t.Fatalf("tenant stranded after its home shard drained: %v", err)
	}
	if res.Shard != "shard-1" {
		t.Fatalf("tenant rebalanced to %s, want shard-1", res.Shard)
	}
	// drain is idempotent and shared
	if err := f.DrainShard("shard-0"); err != nil {
		t.Fatal("second drain:", err)
	}
	if st := f.Stats(); st.Drains != 1 {
		t.Fatalf("one drain counted %d times", st.Drains)
	}
	if err := f.DrainShard("nope"); err == nil {
		t.Fatal("unknown shard drained")
	}
}

func TestDrainUnderTrafficNoSilentDrops(t *testing.T) {
	before := runtime.NumGoroutine()
	f, _ := newTier(t, 3, 2, Config{})

	var wg sync.WaitGroup
	var untyped, failed int
	var mu sync.Mutex
	for i := 0; i < 48; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := f.Do(context.Background(),
				Request{Tenant: fmt.Sprintf("t-%d", i%6), X: tierBatch(1 + i%3)})
			if err != nil {
				mu.Lock()
				failed++
				if _, kind := StatusFor(err); kind == "internal" {
					untyped++
				}
				mu.Unlock()
			}
		}(i)
		if i == 16 {
			go f.DrainShard("shard-0") // drain races the traffic
		}
	}
	wg.Wait()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Admitted != st.Terminal() {
		t.Fatalf("silent drops across drain: %+v", st)
	}
	if untyped != 0 {
		t.Fatalf("%d untyped error(s) escaped during drain (of %d failures)", untyped, failed)
	}
	if st.Internal != 0 {
		t.Fatalf("frontend counted %d untyped terminal(s): %+v", st.Internal, st)
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before+2 })
}

func TestCloseIdempotentAndTyped(t *testing.T) {
	f, _ := newTier(t, 2, 1, Config{})
	const closers = 6
	errs := make([]error, closers)
	var wg sync.WaitGroup
	for i := 0; i < closers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f.Close()
		}(i)
	}
	wg.Wait()
	for i := 1; i < closers; i++ {
		if !errors.Is(errs[i], errs[0]) && errs[i] != errs[0] {
			t.Fatalf("closer %d got %v, closer 0 got %v", i, errs[i], errs[0])
		}
	}
	_, err := f.Do(context.Background(), Request{Tenant: "t", X: tierBatch(1)})
	if !errors.Is(err, ErrFrontendClosed) {
		t.Fatalf("Do after Close returned %v, want ErrFrontendClosed", err)
	}
	if code, kind := StatusFor(err); code != 503 || kind != "closed" {
		t.Fatalf("closed maps to (%d, %s), want (503, closed)", code, kind)
	}
}

func TestValidationRejectsBeforeAdmission(t *testing.T) {
	f, _ := newTier(t, 1, 1, Config{MaxRows: 4})
	defer f.Close()
	cases := []Request{
		{Tenant: "", X: tierBatch(1)},      // no tenant
		{Tenant: "t", X: nil},              // no batch
		{Tenant: "t", X: tensor.New(1, 7)}, // wrong width
		{Tenant: "t", X: tierBatch(5)},     // over MaxRows
		{Tenant: "t", X: tensor.New(16)},   // wrong rank
	}
	for i, req := range cases {
		_, err := f.Do(context.Background(), req)
		if !errors.Is(err, ErrInvalid) {
			t.Fatalf("case %d returned %v, want ErrInvalid", i, err)
		}
	}
	st := f.Stats()
	if st.Admitted != 0 || st.Invalid != uint64(len(cases)) {
		t.Fatalf("invalid requests admitted: %+v", st)
	}
}

func TestStatusForTable(t *testing.T) {
	cases := []struct {
		err  error
		code int
		kind string
	}{
		{nil, 200, "ok"},
		{ErrInvalid, 400, "invalid"},
		{ErrQuota, 429, "quota"},
		{ErrFrontendClosed, 503, "closed"},
		{serve.ErrOverloaded, 429, "overloaded"},
		{serve.ErrDeadline, 504, "deadline"},
		{serve.ErrNoDevices, 503, "no_devices"},
		{serve.ErrClosed, 503, "closed"},
		{serve.ErrFaulted, 502, "faulted"},
		{fmt.Errorf("wrapped: %w", serve.ErrDeadline), 504, "deadline"},
		{errors.New("mystery"), 500, "internal"},
	}
	for _, c := range cases {
		code, kind := StatusFor(c.err)
		if code != c.code || kind != c.kind {
			t.Errorf("StatusFor(%v) = (%d, %s), want (%d, %s)", c.err, code, kind, c.code, c.kind)
		}
	}
}

func TestNewValidation(t *testing.T) {
	pats := tierPatterns()
	ref := models.MLP(rng.New(1), 16, []int{12}, 5)
	dev := func(id string) fleet.Device {
		return &tierDevice{id: id, net: ref.Clone(), patterns: pats}
	}
	spec := func(name string) ShardSpec {
		return ShardSpec{Name: name, Devices: []fleet.Device{dev(name + "-d")}, Fleet: tierFleetConfig()}
	}
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("empty tier accepted")
	}
	if _, err := New([]ShardSpec{spec("")}, Config{}); err == nil {
		t.Fatal("unnamed shard accepted")
	}
	if _, err := New([]ShardSpec{spec("a"), spec("a")}, Config{}); err == nil {
		t.Fatal("duplicate shard name accepted")
	}
	if _, err := New([]ShardSpec{spec("a")}, Config{MaxDeadline: -1}); err == nil {
		t.Fatal("negative deadline cap accepted")
	}
	// mismatched input widths across shards must be refused
	other := models.MLP(rng.New(1), 8, []int{6}, 3)
	bad := ShardSpec{Name: "b", Fleet: tierFleetConfig(),
		Devices: []fleet.Device{&tierDevice{id: "b-d", net: other, patterns: &testgen.PatternSet{
			Name: "t8", Method: "plain",
			X:      tensor.RandUniform(rng.New(3), 0, 1, 8, 8),
			Labels: make([]int, 8),
		}}}}
	if _, err := New([]ShardSpec{spec("a"), bad}, Config{}); err == nil {
		t.Fatal("mismatched shard input widths accepted")
	}
}

// waitFor polls cond with a hard 5s cap.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRingSpreadsTenants: bare FNV-1a put every "tenant-NN" on one shard
// (names that differ only in their last bytes barely move its high bits, and
// the ring orders by the whole word). With the avalanche finaliser sequential
// names spread like random ones.
func TestRingSpreadsTenants(t *testing.T) {
	share := func(shards, tenants int, format string) (lo, hi float64) {
		f, _ := newTier(t, shards, 1, Config{})
		defer f.Close()
		counts := make(map[string]int)
		for i := 0; i < tenants; i++ {
			counts[f.pick(fmt.Sprintf(format, i), nil).name]++
		}
		lo = 1
		for _, name := range f.ShardNames() {
			s := float64(counts[name]) / float64(tenants)
			lo, hi = min(lo, s), max(hi, s)
		}
		return lo, hi
	}
	if _, hi := share(2, 64, "tenant-%02d"); hi > 0.65 {
		t.Errorf("tenant-00..63 over 2 shards: busiest shard holds %.2f of them, want <= 0.65", hi)
	}
	// 16 virtual nodes leave the four arcs themselves at 0.74..1.26 of a fair
	// quarter (relative spread ~ 1/sqrt(vnodes)), so that is the floor on how
	// even placement can be; 1000 names land within sampling noise of it
	if lo, hi := share(4, 1000, "tenant-%d"); lo < 0.6/4 || hi > 1.4/4 {
		t.Errorf("1000 tenants over 4 shards: shares span [%.3f, %.3f], want within 40%% of 0.25", lo, hi)
	}
}

// probsOf is net's softmax readout of x through a freshly compiled inference
// plan: a tensor of its own, which the caller may mutate.
func probsOf(net *nn.Network, x *tensor.Tensor) *tensor.Tensor {
	return engine.MustCompile(net, engine.Options{}).Probs(x)
}
