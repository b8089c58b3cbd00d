package engine

import (
	"strings"
	"sync"
	"testing"
	"time"

	"reramtest/internal/models"
	"reramtest/internal/nn"
	"reramtest/internal/rng"
	"reramtest/internal/tensor"
)

// seedModels enumerates every architecture the repo ships. The golden
// equivalence gate below runs each one through the engine and demands exact
// float64 equality with the same rows run one at a time, and
// testdata/golden_logits.json pins the bits themselves — the contract that
// lets the monitor and fleet layers share batched readouts without
// moving a single distance metric or journal fingerprint.
func seedModels() []struct {
	name  string
	build func(r *rng.RNG) *nn.Network
} {
	return []struct {
		name  string
		build func(r *rng.RNG) *nn.Network
	}{
		{"lenet5", models.LeNet5},
		{"convnet7", models.ConvNet7},
		{"mlp", func(r *rng.RNG) *nn.Network {
			return models.MLP(r, 16, []int{24, 16}, 6)
		}},
		{"mlp-deep", func(r *rng.RNG) *nn.Network {
			return models.MLP(r, 32, []int{40, 32, 20}, 8)
		}},
	}
}

// mustForward runs ForwardBatch and fails the test on error; the suites here
// never send empty batches.
func mustForward(t testing.TB, eng *Engine, dst, x *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	out, err := eng.ForwardBatch(dst, x)
	if err != nil {
		t.Fatalf("ForwardBatch: %v", err)
	}
	return out
}

// serialForward is the batch-invariance reference: one sample at a time
// through a fresh single-worker plan of net, reassembled into a batch. A
// row's logits depend on that row alone, so every batch size, worker count
// and rebinding must reproduce them.
func serialForward(net *nn.Network, x *tensor.Tensor) *tensor.Tensor {
	eng := MustCompile(net, Options{Workers: 1})
	n, k := x.Dim(0), eng.outVol
	in := x.Len() / n
	out := tensor.New(n, k)
	for s := 0; s < n; s++ {
		y, err := eng.ForwardBatch(nil, tensor.FromSlice(x.Data()[s*in:(s+1)*in], 1, in))
		if err != nil {
			panic(err) // a one-row batch is never empty
		}
		copy(out.Data()[s*k:], y.Data())
	}
	return out
}

// TestEngineGoldenEquivalence is the table-driven bit-identity gate over all
// seed models, for serial and pooled engines and several batch sizes
// (including re-running the same engine at a different size, which exercises
// the workspace-view rebuild).
func TestEngineGoldenEquivalence(t *testing.T) {
	pool := tensor.NewPool(4)
	defer pool.Close()
	for _, m := range seedModels() {
		m := m
		t.Run(m.name, func(t *testing.T) {
			net := m.build(rng.New(11))
			batches := []int{1, 3, 7}
			if strings.HasPrefix(m.name, "mlp") {
				batches = []int{1, 3, 7, 64}
			}
			configs := []struct {
				label string
				opts  Options
			}{
				{"serial", Options{Workers: 1}},
				{"pool4", Options{Pool: pool}},
			}
			for _, cfg := range configs {
				eng, err := Compile(net, cfg.opts)
				if err != nil {
					t.Fatalf("%s: compile: %v", cfg.label, err)
				}
				for _, n := range batches {
					x := tensor.RandUniform(rng.New(int64(100+n)), 0, 1, n, net.InDim())
					want := serialForward(net, x)
					got := mustForward(t, eng, nil, x)
					if !got.Equal(want) {
						t.Fatalf("%s n=%d: batched forward is not bit-identical to row-at-a-time", cfg.label, n)
					}
					// dst-passing variant must produce the same bits too
					dst := tensor.New(n, eng.outVol)
					mustForward(t, eng, dst, x)
					if !dst.Equal(want) {
						t.Fatalf("%s n=%d: dst-passing forward differs", cfg.label, n)
					}
					// Probs must be the softmax of those logits exactly
					wantP := nn.Softmax(want)
					if !eng.Probs(x).Equal(wantP) {
						t.Fatalf("%s n=%d: Probs differs from nn.Softmax of the logits", cfg.label, n)
					}
				}
			}
		})
	}
}

// TestEnginePredictAccuracyParity: the convenience evaluators must agree with
// the logits sample for sample — Predict is each row's first maximum, and
// Accuracy counts its matches whatever the batch size.
func TestEnginePredictAccuracyParity(t *testing.T) {
	net := models.MLP(rng.New(21), 16, []int{24, 16}, 6)
	eng := MustCompile(net, Options{Workers: 1})
	x := tensor.RandUniform(rng.New(22), 0, 1, 150, 16)
	logits := serialForward(net, x)
	y := make([]int, 150)
	for i := range y {
		y[i] = i % 6
	}
	gotPred := eng.Predict(x)
	correct := 0
	for i := range y {
		want := tensor.FromSlice(logits.Data()[i*6:(i+1)*6], 6).ArgMax()
		if gotPred[i] != want {
			t.Fatalf("sample %d: engine predicted %d, logits say %d", i, gotPred[i], want)
		}
		if want == y[i] {
			correct++
		}
	}
	want := float64(correct) / 150
	for _, batch := range []int{64, 0, 7, 150} {
		if got := eng.Accuracy(x, y, batch); got != want {
			t.Fatalf("accuracy at batch %d: engine %v, logits %v", batch, got, want)
		}
	}
}

// TestEngineRebind: swapping an architecturally identical clone in must reuse
// the plan and track the clone's weights; mismatched networks must be
// rejected with the engine left intact.
func TestEngineRebind(t *testing.T) {
	net := models.MLP(rng.New(31), 16, []int{24, 16}, 6)
	eng := MustCompile(net, Options{Workers: 1})
	x := tensor.RandUniform(rng.New(32), 0, 1, 9, 16)
	base := mustForward(t, eng, nil, x).Clone()

	clone := net.Clone()
	for _, p := range clone.Params() {
		p.Value.Apply(func(v float64) float64 { return v * 1.5 })
	}
	if err := eng.Rebind(clone); err != nil {
		t.Fatalf("rebind clone: %v", err)
	}
	if eng.net != clone {
		t.Fatal("the engine is not bound to the rebound net")
	}
	got := mustForward(t, eng, nil, x)
	if !got.Equal(serialForward(clone, x)) {
		t.Fatal("rebound engine is not bit-identical to the clone's forward")
	}
	if got.Equal(base) {
		t.Fatal("rebound engine still produces the original network's output")
	}

	// restore, then verify rejection paths leave the binding untouched
	if err := eng.Rebind(net); err != nil {
		t.Fatalf("rebind original: %v", err)
	}
	other := models.MLP(rng.New(33), 16, []int{25, 16}, 6)
	if err := eng.Rebind(other); err == nil {
		t.Fatal("rebind accepted a mismatched architecture")
	}
	wider := models.MLP(rng.New(34), 17, []int{24, 16}, 6)
	if err := eng.Rebind(wider); err == nil {
		t.Fatal("rebind accepted a mismatched input dim")
	}
	deeper := models.MLP(rng.New(35), 16, []int{24, 16, 8}, 6)
	if err := eng.Rebind(deeper); err == nil {
		t.Fatal("rebind accepted a deeper network")
	}
	if !mustForward(t, eng, nil, x).Equal(base) {
		t.Fatal("failed rebinds perturbed the engine")
	}

	// A plan with a fused conv → ReLU → max-pool step: a clone's weights swap
	// in and the bits follow; a network whose layers fuse differently — no
	// ReLU, no pool, another pool window with the same output volume, which
	// runs as a step of its own — is turned away, and the plan still answers
	// for the network it holds.
	pool2 := tensor.ConvGeom{InC: 4, InH: 8, InW: 8, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	pool3 := tensor.ConvGeom{InC: 4, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	pool4 := tensor.ConvGeom{InC: 4, InH: 8, InW: 8, KH: 4, KW: 4, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	convNet := func(relu bool, pool *tensor.ConvGeom) *nn.Network {
		r := rng.New(36)
		cg := tensor.ConvGeom{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
		layers := []nn.Layer{nn.NewConv2D("conv", r, cg, 4)}
		if relu {
			layers = append(layers, nn.NewReLU("relu"))
		}
		vol := 4 * 8 * 8
		if pool != nil {
			layers = append(layers, nn.NewMaxPool2D("pool", *pool))
			vol = 4 * 4 * 4
		}
		layers = append(layers, nn.NewFlatten("flat"), nn.NewDense("fc", r, vol, 5))
		return nn.NewNetwork("block", 64, layers...)
	}
	fusedNet := convNet(true, &pool2)
	eng = MustCompile(fusedNet, Options{Workers: 1})
	if got := len(eng.steps); got != 2 {
		t.Fatalf("conv → ReLU → pool → dense compiled to %d steps, want 2 (the block, the dense)", got)
	}
	x = tensor.RandUniform(rng.New(37), 0, 1, 5, 64)
	base = mustForward(t, eng, nil, x).Clone()
	if !base.Equal(serialForward(fusedNet, x)) {
		t.Fatal("fused plan is not bit-identical to the network's forward")
	}
	clone = fusedNet.Clone()
	for _, p := range clone.Params() {
		p.Value.Apply(func(v float64) float64 { return v * -0.75 })
	}
	if err := eng.Rebind(clone); err != nil {
		t.Fatalf("rebind fused clone: %v", err)
	}
	if got := mustForward(t, eng, nil, x); !got.Equal(serialForward(clone, x)) || got.Equal(base) {
		t.Fatal("rebound fused plan does not follow the clone's weights")
	}
	if err := eng.Rebind(fusedNet); err != nil {
		t.Fatalf("rebind fused original: %v", err)
	}
	for _, bad := range []struct {
		name string
		net  *nn.Network
		want string
	}{
		{"no ReLU", convNet(false, &pool2), "*nn.Conv2D+*nn.ReLU+*nn.MaxPool2D"},
		{"no pool", convNet(true, nil), "*nn.Conv2D+*nn.ReLU+*nn.MaxPool2D"},
		{"another pool window", convNet(true, &pool3), "*nn.Conv2D+*nn.ReLU+*nn.MaxPool2D"},
	} {
		err := eng.Rebind(bad.net)
		if err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Fatalf("rebind onto a fused plan, %s: error %v, want one naming %q", bad.name, err, bad.want)
		}
		if eng.net != fusedNet || !mustForward(t, eng, nil, x).Equal(base) {
			t.Fatalf("rejected rebind (%s) perturbed the fused plan", bad.name)
		}
	}

	// A pool that is not 2×2, stride 2 and unpadded is its own step behind
	// the conv → ReLU block, and a network with another such window of the
	// same output volume is turned away on its geometry.
	unfusedNet := convNet(true, &pool3)
	eng = MustCompile(unfusedNet, Options{Workers: 1})
	if got := len(eng.steps); got != 3 {
		t.Fatalf("conv → ReLU → 3×3 pool → dense compiled to %d steps, want 3 (the block, the pool, the dense)", got)
	}
	if !mustForward(t, eng, nil, x).Equal(serialForward(unfusedNet, x)) {
		t.Fatal("plan with an unfused pool is not bit-identical to the network's forward")
	}
	if err := eng.Rebind(convNet(true, &pool4)); err == nil || !strings.Contains(err.Error(), "geometry") {
		t.Fatalf("rebind onto another pool window: error %v, want one naming geometry", err)
	}
}

// TestEngineCompileRejectsUnbatchable: a layer without a batched kernel must
// fail compilation with a useful error, not silently fall back.
func TestEngineCompileRejectsUnbatchable(t *testing.T) {
	net := nn.NewNetwork("odd", 4, &unbatchable{})
	if _, err := Compile(net, Options{}); err == nil ||
		!strings.Contains(err.Error(), "no batched inference path") {
		t.Fatalf("compile error = %v, want unbatchable-layer error", err)
	}
}

// unbatchable is a Layer other than Flatten with no BatchInfer kernel.
type unbatchable struct{}

func (u *unbatchable) Name() string               { return "unbatchable" }
func (u *unbatchable) Params() []*nn.Param        { return nil }
func (u *unbatchable) Clone() nn.Layer            { return &unbatchable{} }
func (u *unbatchable) OutputShape(in []int) []int { return in }

// TestEngineSteadyStateAllocFree: after warmup, same-size batches must not
// allocate — serial and pooled — on the default monitor model's shape.
func TestEngineSteadyStateAllocFree(t *testing.T) {
	net := models.MLP(rng.New(41), 16, []int{24, 16}, 6)
	x := tensor.RandUniform(rng.New(42), 0, 1, 16, 16)
	pool := tensor.NewPool(4)
	defer pool.Close()
	for _, cfg := range []struct {
		label string
		opts  Options
	}{
		{"serial", Options{Workers: 1, MaxBatch: 16}},
		{"pool4", Options{Pool: pool, MaxBatch: 16}},
	} {
		eng := MustCompile(net, cfg.opts)
		eng.Probs(x) // warmup: builds views and probs buffer
		if allocs := testing.AllocsPerRun(50, func() { eng.Probs(x) }); allocs != 0 {
			t.Errorf("%s: %v allocs/op in steady state, want 0", cfg.label, allocs)
		}

		// a monitored device: 8-row requests between 16-row readouts on one
		// plan. Switching the batch size re-points the views in place, and
		// on the pooled arm LeNet-5 is enough work that both sizes fan out.
		lenet := models.LeNet5(rng.New(43))
		req := tensor.RandUniform(rng.New(44), 0, 1, 8, lenet.InDim())
		readout := tensor.RandUniform(rng.New(45), 0, 1, 16, lenet.InDim())
		eng = MustCompile(lenet, cfg.opts)
		eng.Probs(readout)
		eng.Probs(req)
		if allocs := testing.AllocsPerRun(10, func() { eng.Probs(readout); eng.Probs(req) }); allocs != 0 {
			t.Errorf("%s: %v allocs per 16-row/8-row pair on LeNet-5, want 0", cfg.label, allocs)
		}
	}
}

// TestSmallBatchStaysOffThePool: a batch below the fan-out threshold runs on
// the caller's goroutine and never waits for the pool — here a pool whose
// workers are all parked on a gate, as they are behind another engine's long
// batch. A batch above the threshold on the same pool does wait, which is
// the proof that the gate would have stalled the small one.
func TestSmallBatchStaysOffThePool(t *testing.T) {
	pool := tensor.NewPool(2)
	gate, parked := make(chan struct{}), make(chan struct{})
	var holders sync.WaitGroup
	for w := 0; w < pool.Workers(); w++ {
		holders.Add(1)
		go func() {
			defer holders.Done()
			var run sync.WaitGroup
			// chunk 0 runs on this goroutine, chunk 1 parks a worker
			pool.RunWith(&run, 2, 2, func(chunk, _, _ int) {
				if chunk == 1 {
					parked <- struct{}{}
					<-gate
				}
			})
		}()
	}
	var opened sync.Once
	open := func() { opened.Do(func() { close(gate) }) }
	t.Cleanup(func() {
		open()
		holders.Wait()
		pool.Close()
	})
	for w := 0; w < pool.Workers(); w++ {
		<-parked
	}

	mlp := models.MLP(rng.New(61), 16, []int{24, 16}, 6)
	readout := tensor.RandUniform(rng.New(62), 0, 1, 16, 16)
	small := MustCompile(mlp, Options{Pool: pool})
	done := make(chan *tensor.Tensor, 1)
	go func() { done <- small.Probs(readout).Clone() }()
	select {
	case got := <-done:
		if !got.Equal(nn.Softmax(serialForward(mlp, readout))) {
			t.Fatal("small batch on a busy pool diverged from the serial forward")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a 16-row MLP readout waited for a pool whose workers are parked")
	}

	lenet := models.LeNet5(rng.New(63))
	batch := tensor.RandUniform(rng.New(64), 0, 1, 8, lenet.InDim())
	large := MustCompile(lenet, Options{Pool: pool})
	go func() { done <- large.Probs(batch).Clone() }()
	select {
	case <-done:
		t.Fatal("an 8-row LeNet-5 batch never reached the pool: nothing fans out any more")
	case <-time.After(50 * time.Millisecond):
	}
	open()
	if got := <-done; !got.Equal(nn.Softmax(serialForward(lenet, batch))) {
		t.Fatal("fanned-out batch diverged from the serial forward")
	}
}

// TestEnginesShareOnePool drives several engines over one pool concurrently
// (the fleet topology); run under -race via the Makefile race target.
func TestEnginesShareOnePool(t *testing.T) {
	pool := tensor.NewPool(4)
	defer pool.Close()
	// 48 rows × 23k MACs: above the fan-out threshold, so every call really
	// sends chunks to the shared workers
	net := models.MLP(rng.New(51), 96, []int{160, 48}, 6)
	x := tensor.RandUniform(rng.New(52), 0, 1, 48, 96)
	if 48*MustCompile(net, Options{}).rowMACs < fanOutMinMACs {
		t.Fatal("test batch is below the fan-out threshold and would never touch the pool")
	}
	want := serialForward(net, x)
	done := make(chan error, 6)
	for g := 0; g < 6; g++ {
		go func() {
			eng := MustCompile(net.Clone(), Options{Pool: pool})
			for iter := 0; iter < 40; iter++ {
				out, err := eng.ForwardBatch(nil, x)
				if err != nil || !out.Equal(want) {
					done <- errDiverged
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 6; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errDiverged = errorString("concurrent engine diverged from serial forward")

type errorString string

func (e errorString) Error() string { return string(e) }
