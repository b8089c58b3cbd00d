package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"reramtest/internal/engine"
	"reramtest/internal/fleet"
	"reramtest/internal/netserve"
	"reramtest/internal/nn"
	"reramtest/internal/reram"
	"reramtest/internal/rng"
	"reramtest/internal/serve"
	"reramtest/internal/tensor"
)

// rung is one nesting level of the request path, on its own fresh stack. call
// times one request through it; whatever a level above would have prepared
// (the tensor, the deadline context, the marshalled body) is built outside
// the timed region.
type rung struct {
	self  string // per-layer metric that receives this rung's self time
	call  func(i int) (time.Duration, error)
	close func()
}

// memWriter is the in-memory http.ResponseWriter of the handler rung.
type memWriter struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (w *memWriter) Header() http.Header         { return w.header }
func (w *memWriter) WriteHeader(code int)        { w.code = code }
func (w *memWriter) Write(b []byte) (int, error) { return w.body.Write(b) }

// ladder is the serial stage table's measurements.
type ladder struct {
	selfUs    map[string]float64 // rung self times; they sum to totalUs
	totalUs   float64            // the top rung's median
	reqBytes  int
	respBytes int
}

// runLadder replays the same n scheduled requests (after n/10 warm-up) from
// one caller through each nesting level in turn and takes each rung's median.
// A rung's self time is its median minus the rung below. Rungs run one after
// another, not interleaved: alternating between stacks evicts each engine's
// workspaces and times every call cache-cold.
func runLadder(p *plant, n int) (ladder, error) {
	lad := ladder{selfUs: make(map[string]float64)}
	for _, name := range []string{"engine.probs_us", "serve.station_us", "serve.do_us",
		"netserve.do_us", "netserve.http_us", "loadgen.client_us"} {
		lad.selfUs[name] = 0 // rungs off this workload's path stay 0
	}
	deadline := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(context.Background(), deadlineMs*time.Millisecond)
	}

	inproc, err := newStack(p, false)
	if err != nil {
		return lad, err
	}
	// the two innermost rungs share one device: a second engine's workspaces
	// land on other addresses, which moves a conv kernel by more than the
	// whole station costs
	dev := p.newDevice("ladder-station")
	station := serve.NewStation(dev)
	srv, err := serve.New(p.newDevices("ladder", devicesPerShard), fleetConfig(), serveConfig(), nil)
	if err != nil {
		inproc.close()
		return lad, err
	}
	rungs := []rung{
		{self: "engine.probs_us", close: func() {}, call: func(i int) (time.Duration, error) {
			t0 := time.Now()
			dev.eng.Probs(inproc.xs[i])
			return time.Since(t0), nil
		}},
		{self: "serve.station_us", close: func() {}, call: func(i int) (time.Duration, error) {
			t0 := time.Now()
			out, _ := station.ServeInfer(inproc.xs[i])
			d := time.Since(t0)
			if out == nil {
				return d, fmt.Errorf("station answered nothing")
			}
			return d, nil
		}},
		{self: "serve.do_us", close: func() { srv.Close() }, call: func(i int) (time.Duration, error) {
			ctx, cancel := deadline()
			defer cancel()
			t0 := time.Now()
			_, err := srv.Do(ctx, inproc.xs[i], serve.Bulk)
			return time.Since(t0), err
		}},
		{self: "netserve.do_us", close: inproc.close, call: func(i int) (time.Duration, error) {
			ctx, cancel := deadline()
			defer cancel()
			t0 := time.Now()
			_, err := inproc.front.Do(ctx, netserve.Request{Tenant: p.reqs[i].Tenant, X: inproc.xs[i]})
			return time.Since(t0), err
		}},
	}
	defer func() {
		for _, r := range rungs {
			r.close()
		}
	}()

	if p.w.http {
		handled, err := newStack(p, true)
		if err != nil {
			return lad, err
		}
		handler := handled.front.Handler()
		rungs = append(rungs, rung{self: "netserve.http_us", close: handled.close, call: func(i int) (time.Duration, error) {
			body := p.wireBody(i)
			req, err := http.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body))
			if err != nil {
				return 0, err
			}
			req.Header.Set(netserve.DeadlineHeader, strconv.Itoa(deadlineMs))
			rec := &memWriter{header: make(http.Header), code: http.StatusOK}
			t0 := time.Now()
			handler.ServeHTTP(rec, req)
			d := time.Since(t0)
			if rec.code != http.StatusOK {
				return d, fmt.Errorf("handler answered %d: %s", rec.code, rec.body.Bytes())
			}
			lad.reqBytes, lad.respBytes = len(body), rec.body.Len()
			return d, nil
		}})
		wired, err := newStack(p, true)
		if err != nil {
			return lad, err
		}
		rungs = append(rungs, rung{self: "loadgen.client_us", close: wired.close, call: func(i int) (time.Duration, error) {
			ctx, cancel := deadline()
			defer cancel()
			t0 := time.Now()
			o := wired.target.Serve(ctx, p.reqs[i])
			d := time.Since(t0)
			if o.Kind != "ok" {
				return d, fmt.Errorf("client saw %q", o.Kind)
			}
			return d, nil
		}})
	}

	warm, below := n/10, 0.0
	for _, rg := range rungs {
		samples := make([]float64, 0, n)
		for k := 0; k < warm+n; k++ {
			d, err := rg.call(k % len(p.reqs))
			if err != nil {
				return lad, fmt.Errorf("ladder rung %s: %w", rg.self, err)
			}
			if k >= warm {
				samples = append(samples, float64(d))
			}
		}
		med := median(samples)
		lad.selfUs[rg.self] = (med - below) / 1e3
		below = med
	}
	lad.totalUs = below / 1e3
	return lad, nil
}

// medianNs calls f repeatedly until budget is spent (at least three samples)
// and returns the median time of one call. Calls too short for the clock are
// timed in blocks.
func medianNs(budget time.Duration, f func()) float64 {
	f() // the first call sizes workspaces
	t0 := time.Now()
	f()
	block := 1
	if one := time.Since(t0); one < 20*time.Microsecond {
		block = int(20*time.Microsecond/(one+1)) + 1
	}
	var samples []float64
	for start := time.Now(); len(samples) < 3 || time.Since(start) < budget; {
		t0 := time.Now()
		for k := 0; k < block; k++ {
			f()
		}
		samples = append(samples, float64(time.Since(t0))/float64(block))
	}
	return median(samples)
}

// kernelTable times the model outside any tier: one plan per precision at
// batch 8, then every layer's ForwardBatchRange on its own (f64), summed by
// kind. FLOPs are counted from the layer shapes (2 per multiply-accumulate).
func kernelTable(p *plant, budget time.Duration, m map[string]float64) error {
	const batch = 8
	x := tensor.RandUniform(rng.New(modelSeed), 0, 1, batch, p.ref.InDim())
	for _, tier := range []struct {
		name string
		prec tensor.Precision
	}{{"engine.f64_us_per_row", tensor.F64}, {"engine.f32_us_per_row", tensor.F32}, {"engine.i8_us_per_row", tensor.I8}} {
		opts := engineOptions()
		opts.Precision = tier.prec
		eng, err := engine.Compile(p.ref.Clone(), opts)
		if err != nil {
			return err
		}
		m[tier.name] = medianNs(budget, func() { eng.Probs(x) }) / 1e3 / batch
	}

	kinds := map[string]float64{"nn.conv_us_per_row": 0, "nn.dense_us_per_row": 0, "nn.pool_us_per_row": 0, "nn.act_us_per_row": 0}
	var macs int
	cur, shape := x, []int{p.ref.InDim()}
	for _, l := range p.ref.Layers() {
		shape = l.OutputShape(shape)
		bl, ok := l.(nn.BatchInfer)
		if !ok {
			continue // inference passthrough (Flatten): the engine elides it too
		}
		var kind string
		switch l := l.(type) {
		case *nn.Conv2D:
			kind = "nn.conv_us_per_row"
			g := l.Geom()
			macs += l.OutC() * g.InC * g.KH * g.KW * g.OutH() * g.OutW()
		case *nn.Dense:
			kind = "nn.dense_us_per_row"
			macs += l.In() * l.Out()
		case *nn.MaxPool2D, *nn.AvgPool2D:
			kind = "nn.pool_us_per_row"
		default:
			kind = "nn.act_us_per_row"
		}
		vol := 1
		for _, d := range shape {
			vol *= d
		}
		dst := tensor.New(batch, vol)
		scratch := make([]float64, bl.InferScratch())
		kinds[kind] += medianNs(budget/2, func() { bl.ForwardBatchRange(dst, cur, 0, batch, scratch) }) / 1e3 / batch
		cur = dst
	}
	m["nn.other_us_per_row"] = m["engine.f64_us_per_row"]
	for kind, us := range kinds {
		m[kind] = us
		m["nn.other_us_per_row"] -= us
	}
	m["engine.mflop_per_row"] = 2 * float64(macs) / 1e6
	m["engine.gflops"] = m["engine.mflop_per_row"] / m["engine.f64_us_per_row"] * 1e3
	return nil
}

// dispatchUs times the fleet router's placement decision on its own: one
// DispatchAvoidingErr + Complete on a two-device supervisor.
func dispatchUs(p *plant, budget time.Duration) (float64, error) {
	sup, err := fleet.New(p.newDevices("dispatch", devicesPerShard), fleetConfig(), nil)
	if err != nil {
		return 0, err
	}
	var failed error
	ns := medianNs(budget, func() {
		id, _, err := sup.DispatchAvoidingErr("")
		if err != nil {
			failed = err
			return
		}
		sup.Complete(id)
	})
	return ns / 1e3, failed
}

// classCost sums every device's spend in one attribution class.
func classCost(f *netserve.Frontend, class reram.Class) reram.Cost {
	var sum reram.Cost
	for _, devs := range f.DeviceCosts() {
		for _, b := range devs {
			sum.Add(b.ByClass(class))
		}
	}
	return sum
}

// idleTicks times Frontend.Tick with no traffic on a fresh stack and reads
// what the ticks spent off the devices' monitor-class counters.
func idleTicks(p *plant, n int, budget time.Duration, m map[string]float64) error {
	s, err := newStack(p, false)
	if err != nil {
		return err
	}
	defer s.close()
	s.front.Tick() // the first tick sizes the engines' batch-16 workspaces
	before := classCost(s.front, reram.ClassMonitor)
	ms := make([]float64, n)
	for i := range ms {
		t0 := time.Now()
		s.front.Tick()
		ms[i] = float64(time.Since(t0)) / 1e6
	}
	spent := classCost(s.front, reram.ClassMonitor).Minus(before)
	var perRow reram.Cost
	for _, d := range s.devices {
		perRow = d.eng.PlanCost()
	}
	rows := float64(spent.EnergyFJ) / float64(perRow.EnergyFJ) / float64(n)
	m["monitor.tick_idle_ms"] = median(ms)
	m["monitor.readout_rows_per_tick"] = rows
	m["hwcost.monitor_fj_per_tick"] = float64(spent.EnergyFJ) / float64(n)

	// The non-inference part of a tick: what is left of the idle tick after
	// the readouts themselves, at the engine's batch-16 speed. A shard's
	// devices read out in parallel (as far as there are processors), shards
	// one after another.
	eng := engine.MustCompile(p.ref.Clone(), engineOptions())
	usPerRow := medianNs(budget, func() { eng.Probs(p.pats.X) }) / 1e3 / patterns
	width := min(devicesPerShard, runtime.GOMAXPROCS(0))
	m["monitor.tick_overhead_us"] = m["monitor.tick_idle_ms"]*1e3 - rows*usPerRow/float64(width)
	return nil
}
