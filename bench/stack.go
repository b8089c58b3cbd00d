package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"reramtest/internal/campaign"
	"reramtest/internal/engine"
	"reramtest/internal/fleet"
	"reramtest/internal/health"
	"reramtest/internal/loadgen"
	"reramtest/internal/models"
	"reramtest/internal/monitor"
	"reramtest/internal/netserve"
	"reramtest/internal/nn"
	"reramtest/internal/reram"
	"reramtest/internal/rng"
	"reramtest/internal/serve"
	"reramtest/internal/tensor"
	"reramtest/internal/testgen"
)

// The tier shape every workload shares. Fixed, not derived from the host, so
// a workload is the same traffic against the same tier everywhere.
const (
	clients         = 2  // closed-loop callers, one goroutine each
	shards          = 2  // serve.Server shards under the frontend
	devicesPerShard = 2  // accelerators per shard
	tenants         = 64 // tenant-00..63, equal weight, no quota
	patterns        = 16 // concurrent-test patterns per device
	deadlineMs      = 2000
	grace           = 250 * time.Millisecond // loadgen's hung-request slack
	modelSeed       = 1                      // He-initialisation seed; timing, not accuracy, is measured
)

// workload is one named traffic mix. The names are cited by later issues and
// by BENCHMARK.json; README.md records why each exists.
type workload struct {
	name     string
	model    func() *nn.Network
	rows     int           // rows per request
	http     bool          // loadgen.HTTPTarget over loopback; false = Frontend.Do with pre-built tensors
	tick     time.Duration // Frontend.Tick cadence under load; 0 = no ticks
	schedule int           // requests in the cyclic schedule (bounds resident payload memory)
	ladder   int           // requests replayed through each rung of the serial ladder
}

var workloads = []workload{
	{name: "mlp_rpc", model: stockMLP, rows: 1, http: true, schedule: 16384, ladder: 4000},
	{name: "lenet5_batch", model: lenet5, rows: 8, http: true, schedule: 256, ladder: 200},
	{name: "lenet5_monitored", model: lenet5, rows: 8, http: true, tick: 250 * time.Millisecond, schedule: 256, ladder: 200},
	{name: "convnet7_inproc", model: convnet7, rows: 8, http: false, schedule: 128, ladder: 100},
}

func stockMLP() *nn.Network {
	return models.MLP(rng.New(modelSeed), campaign.StockInDim, []int{24, 16}, campaign.StockOutDim)
}
func lenet5() *nn.Network   { return models.LeNet5(rng.New(modelSeed)) }
func convnet7() *nn.Network { return models.ConvNet7(rng.New(modelSeed)) }

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// engineOptions is the one compilation every device and the bit-identity
// reference share.
func engineOptions() engine.Options { return engine.Options{Workers: 1} }

// device is the benchmark's own fleet.Device: an engine.Engine over a clone
// of the workload's model, metered through the engine's counter.
type device struct {
	id   string
	net  *nn.Network
	pats *testgen.PatternSet
	eng  *engine.Engine
}

func (d *device) ID() string                    { return d.id }
func (d *device) Infer() monitor.Infer          { return d.eng.Probs }
func (d *device) Repairer() health.Repairer     { return nil }
func (d *device) Reference() *nn.Network        { return d.net }
func (d *device) Patterns() *testgen.PatternSet { return d.pats }
func (d *device) CostCounter() *reram.Counter   { return d.eng.Counter() }

// plant is what a seed fixes before any tier is built: the model, the test
// patterns and the request schedule. The ladder's fresh stacks share one.
type plant struct {
	w          workload
	ref        *nn.Network
	pats       *testgen.PatternSet
	reqs       []loadgen.Request
	generateMs float64
}

func newPlant(w workload, seed int64) (*plant, error) {
	ref := w.model()
	p := &plant{w: w, ref: ref, pats: &testgen.PatternSet{
		Name: w.name + "-patterns", Method: "plain",
		X:      tensor.RandUniform(rng.New(seed).Split(), 0, 1, patterns, ref.InDim()),
		Labels: make([]int, patterns),
	}}
	specs := make([]loadgen.TenantSpec, tenants)
	for i := range specs {
		specs[i] = loadgen.TenantSpec{Name: fmt.Sprintf("tenant-%02d", i), Weight: 1, MaxRows: 1}
	}
	// Generate draws a request's row count uniformly from [1, MaxRows]; the
	// workloads want exactly w.rows, so one wide row is generated and cut.
	t0 := time.Now()
	reqs, err := loadgen.Generate(seed, loadgen.Config{
		Tenants: specs, Requests: w.schedule, InDim: w.rows * ref.InDim(),
		DeadlineMs: deadlineMs, Grace: grace,
	})
	if err != nil {
		return nil, err
	}
	p.generateMs = float64(time.Since(t0)) / 1e6
	for i := range reqs {
		wide := reqs[i].Input[0]
		rows := make([][]float64, w.rows)
		for r := range rows {
			rows[r] = wide[r*ref.InDim() : (r+1)*ref.InDim()]
		}
		reqs[i].Input = rows
	}
	p.reqs = reqs
	return p, nil
}

func (p *plant) newDevice(id string) *device {
	net := p.ref.Clone()
	return &device{id: id, net: net, pats: p.pats, eng: engine.MustCompile(net, engineOptions())}
}

func (p *plant) newDevices(prefix string, n int) []fleet.Device {
	out := make([]fleet.Device, n)
	for i := range out {
		out[i] = p.newDevice(fmt.Sprintf("%s-%02d", prefix, i))
	}
	return out
}

// tensorOf packs schedule entry i as the (rows, inDim) batch the wire
// decoder would build from it.
func (p *plant) tensorOf(i int) *tensor.Tensor {
	in := p.ref.InDim()
	x := tensor.New(p.w.rows, in)
	for r, row := range p.reqs[i].Input {
		copy(x.Data()[r*in:(r+1)*in], row)
	}
	return x
}

func fleetConfig() fleet.Config { return campaign.DefaultNetSoakConfig().Fleet }

func serveConfig() serve.Config {
	return serve.Config{Workers: 4, QueueBulk: 64, QueueMonitor: 16,
		HedgeAfter: 100 * time.Millisecond, DefaultDeadline: 2 * time.Second}
}

// stack is one live tier: frontend, devices, and (for HTTP workloads) the
// loopback listener and loadgen client. It also keeps the client-side ledger
// the accounting identities are checked against: every request sent into a
// stack goes through record.
type stack struct {
	*plant
	front   *netserve.Frontend
	devices map[string]*device
	wire    bool             // requests travel over HTTP; false = Frontend.Do
	xs      []*tensor.Tensor // pre-built request tensors (in-process stacks only)

	srv    *http.Server
	base   string
	target *loadgen.HTTPTarget
	raw    *http.Client // correctness gate's own wire client

	cursor [clients]int // each client's position in the cyclic schedule
	rate   float64      // requests per second and client in the latest segment

	mu     sync.Mutex
	ledger ledger

	misbooked uint64 // served rows whose cost the tier booked to the monitor class (see identities)
}

// ledger is what the clients saw: requests sent, answered ok, and the rows
// and hardware cost of the ok answers.
type ledger struct {
	sent, ok, rows uint64
	cost           reram.Cost
}

func (l *ledger) add(o loadgen.Outcome, rows int) {
	l.sent++
	if o.Kind == "ok" {
		l.ok++
		l.rows += uint64(rows)
		l.cost.Add(o.Cost)
	}
}

func (l *ledger) merge(o ledger) {
	l.sent += o.sent
	l.ok += o.ok
	l.rows += o.rows
	l.cost.Add(o.cost)
}

// newStack builds the tier over p, behind a loopback listener with its
// clients (wire) or with the schedule packed into tensors for Frontend.Do.
// Together with newPlant this is everything setup_s times.
func newStack(p *plant, wire bool) (*stack, error) {
	s := &stack{plant: p, wire: wire, devices: make(map[string]*device)}
	specs := make([]netserve.ShardSpec, shards)
	for i := range specs {
		devs := p.newDevices(fmt.Sprintf("s%d", i), devicesPerShard)
		for _, d := range devs {
			s.devices[d.ID()] = d.(*device)
		}
		specs[i] = netserve.ShardSpec{Name: fmt.Sprintf("shard-%d", i), Devices: devs,
			Fleet: fleetConfig(), Serve: serveConfig()}
	}
	front, err := netserve.New(specs, netserve.Config{RetryMax: 1, MaxRows: 8,
		DefaultDeadline: 2 * time.Second, MaxDeadline: 5 * time.Second})
	if err != nil {
		return nil, err
	}
	s.front = front
	for c := range s.cursor {
		s.cursor[c] = c
	}
	if !wire {
		s.xs = make([]*tensor.Tensor, len(p.reqs))
		for i := range s.xs {
			s.xs[i] = p.tensorOf(i)
		}
		return s, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		front.Close()
		return nil, err
	}
	s.srv = &http.Server{Handler: front.Handler()}
	go s.srv.Serve(ln) // returns when close() closes the server
	s.base = "http://" + ln.Addr().String()
	s.target = loadgen.NewHTTPTarget(s.base, nil)
	s.raw = &http.Client{Transport: &http.Transport{}}
	return s, nil
}

// build is newPlant + newStack on the workload's own request path.
func build(w workload, seed int64) (*stack, error) {
	p, err := newPlant(w, seed)
	if err != nil {
		return nil, err
	}
	return newStack(p, w.http)
}

func (s *stack) close() {
	if s.srv != nil {
		s.srv.Close()
		s.target.CloseIdle()
		s.raw.CloseIdleConnections()
	}
	s.front.Close()
}

// call sends schedule entry i down the workload's request path and
// classifies the answer, without touching the ledger.
func (s *stack) call(ctx context.Context, i int) loadgen.Outcome {
	if s.wire {
		ctx, cancel := context.WithTimeout(ctx, deadlineMs*time.Millisecond+grace)
		defer cancel()
		return s.target.Serve(ctx, s.reqs[i])
	}
	_, o := s.do(ctx, i)
	return o
}

// do is the in-process request path: Frontend.Do on a pre-built tensor under
// the same deadline the header carries on the wire.
func (s *stack) do(ctx context.Context, i int) (netserve.Result, loadgen.Outcome) {
	ctx, cancel := context.WithTimeout(ctx, deadlineMs*time.Millisecond)
	defer cancel()
	res, err := s.front.Do(ctx, netserve.Request{Tenant: s.reqs[i].Tenant, X: s.xs[i]})
	if err != nil {
		code, kind := netserve.StatusFor(err)
		return res, loadgen.Outcome{Kind: kind, Code: code}
	}
	return res, loadgen.Outcome{Kind: "ok", Code: http.StatusOK, Degraded: res.Degraded, Cost: res.Cost}
}

func (s *stack) record(l ledger) {
	s.mu.Lock()
	s.ledger.merge(l)
	s.mu.Unlock()
}

// answer is a full reply, as the correctness gate needs it.
type answer struct {
	Probs  [][]float64 `json:"probs"`
	Shard  string      `json:"shard"`
	Device string      `json:"device"`
	Cost   reram.Cost  `json:"cost"`
}

// wireBody renders schedule entry i as the documented POST /v1/infer body.
func (p *plant) wireBody(i int) []byte {
	body, err := json.Marshal(struct {
		Tenant   string      `json:"tenant"`
		Priority string      `json:"priority"`
		Input    [][]float64 `json:"input"`
	}{p.reqs[i].Tenant, "bulk", p.reqs[i].Input})
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return body
}

// ask sends schedule entry i as raw wire JSON (or through Frontend.Do on an
// in-process stack), records it in the ledger and returns the full reply.
// Anything but an ok answer is an error, and ends the run.
func (s *stack) ask(i int) (answer, error) {
	var a answer
	if s.wire {
		req, err := http.NewRequest(http.MethodPost, s.base+"/v1/infer", bytes.NewReader(s.wireBody(i)))
		if err != nil {
			return a, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(netserve.DeadlineHeader, strconv.Itoa(deadlineMs))
		resp, err := s.raw.Do(req)
		if err != nil {
			return a, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return a, fmt.Errorf("request %d answered HTTP %d", i, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
			return a, fmt.Errorf("request %d: undecodable 200 body: %w", i, err)
		}
	} else {
		res, o := s.do(context.Background(), i)
		if o.Kind != "ok" {
			return a, fmt.Errorf("request %d answered %q", i, o.Kind)
		}
		a = answer{Shard: res.Shard, Device: res.Device, Cost: res.Cost}
		n, k := res.Probs.Dim(0), res.Probs.Dim(1)
		for r := 0; r < n; r++ {
			a.Probs = append(a.Probs, res.Probs.Data()[r*k:(r+1)*k])
		}
	}
	s.record(ledger{sent: 1, ok: 1, rows: uint64(s.w.rows), cost: a.Cost})
	return a, nil
}
