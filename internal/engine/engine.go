// Package engine compiles an nn.Network into a batch-first inference plan:
// step output workspaces are allocated once, layers execute through their
// destination-passing BatchInfer kernels, and the whole (N, inDim) pattern
// batch flows through the stack with zero steady-state allocations — also
// when the batch size alternates below the largest one seen (a monitored
// device's 8-row requests and 16-row readouts): the workspace views are
// re-pointed in place.
//
// On the default F64 tier a plan step is a layer, or a fused run: every
// Conv2D, ReLU[, MaxPool2D] run the network holds compiles to one
// nn.ConvBlock step — per sample, the register tiles (4×16 AVX-512, 4×8 AVX2
// or 4×4 SSE2 by host) read the sample straight from a zero-bordered copy of
// it through the layer's row-offset table (tensor.ConvPlan; no im2col panel
// is built) and store bias + ReLU as they go, one output row per sweep, then
// tensor.ReLUMaxPool2x2's SSE2 2×2 maximum runs over the cache-hot ReLU'd
// product — so neither the convolution's nor the ReLU's full-batch output
// exists. The pool fuses only when it is 2×2, stride 2 and unpadded, as
// every pool of the paper models is; any other pool is a step of its own.
// Dense layers run the same register tiles, four sample rows at a time
// (tensor.MatMulBlockedSlices). Rebind plans the incoming network the same
// way and accepts it only if it lands on the compiled steps one for one.
// PlanCost is summed over the unfused layers: fusion changes where
// activations live, not what a crossbar would be charged for them.
//
// F64 outputs are the same bits whatever the batch size or worker count:
// every kernel processes batch rows independently and folds each output
// element's terms in one fixed order, its training-path twin's; a post-ReLU
// window maximum is order-free (no NaN, no −0), which is what lets the fused
// pool take it with MAXPD. Parallelism only ever partitions whole samples:
// a batch fans out over the pool at most once, each chunk of rows running
// every step, and a batch under fanOutMinMACs of work does not fan out at
// all. The golden equivalence tests in this package assert exact float64
// equality for every seed model, and testdata/golden_logits.json pins the
// bits themselves, which is what lets the monitor, campaign and fleet
// layers route their readouts through an engine without perturbing a single
// metric, soak gate or journal fingerprint.
//
// Options.Precision opts a plan into a fast tier (see DESIGN.md §16): F32
// compiles the float32 kernel mirror with fused dense+bias(+ReLU) steps and
// converted-weight caches, accepted within a documented ULP envelope of the
// F64 reference; I8 compiles dense layers onto the int8×int8→int32 quantized
// kernels matching the reram DAC/ADC resolution, exactly equal to a
// model-level quantize-then-f64 oracle. Both tiers keep the preallocated-
// workspace guarantee: 0 allocs/op in the steady state. Dispatch is chosen
// once at Compile, never per call. Fast-tier plans snapshot parameters into
// their caches at Compile/Rebind; callers that mutate weights in place under
// a live plan refresh the caches with ReloadParams.
//
// An Engine is a single-goroutine object, like the layers it wraps; clone
// the network and compile per goroutine for concurrent inference (the fleet
// does exactly that, one plant engine per device).
package engine

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"reramtest/internal/hwcost"
	"reramtest/internal/nn"
	"reramtest/internal/tensor"
)

// ErrEmptyBatch is returned by ForwardBatch for an N=0 batch: an empty
// forward pass has no logits, and silently returning an empty view let
// callers score nothing and read it as a healthy readout.
var ErrEmptyBatch = errors.New("engine: empty batch")

// Options tunes a compilation.
type Options struct {
	// MaxBatch pre-sizes the workspaces in samples. 0 defers allocation to
	// the first ForwardBatch; workspaces grow on demand either way.
	MaxBatch int
	// Workers caps the chunks a batch is split into across the pool. 0 uses
	// the pool's worker count; 1 forces serial execution.
	Workers int
	// Pool supplies the worker pool. nil selects tensor.SharedPool(), which
	// degrades to inline execution on a single-core host.
	Pool *tensor.Pool
	// Counter receives the plan's modeled hardware cost: each ForwardBatch
	// charges N × PlanCost() into it (one call, zero allocations, numerically
	// invisible — counters are integers off the float64 path). nil allocates
	// a fresh counter, so an engine is always metered; pass the device's
	// counter to pool spend with the analog path, and pass the SAME counter
	// across Rebind/recompile cycles so cumulative spend survives fault-model
	// sweeps and accelerator replacement. The cost is priced at the
	// reference tile (hwcost.DefaultTileRows × hwcost.DefaultTileCols).
	Counter *hwcost.Counter
	// Precision selects the numeric tier the plan computes in. The zero
	// value is tensor.F64, the bit-exact reference arm. tensor.F32 and
	// tensor.I8 are explicit opt-ins: their outputs differ from the
	// reference within the tier's documented contract, and the plan's
	// modeled hardware cost (PlanCost) reflects the cheaper conversions and
	// narrower buffer traffic of the tier actually compiled.
	Precision tensor.Precision
}

// step is one compiled compute step — a layer's BatchInfer kernel, or on the
// F64 plan the fused kernel of a Conv2D, ReLU[, MaxPool2D] run — with its
// output workspace.
type step struct {
	layers     []nn.Layer // the network layers the step runs, in order
	bl         nn.BatchInfer
	inVol      int
	outVol     int
	scratchLen int
	buf        []float64      // output workspace, cap >= capN*outVol
	out        *tensor.Tensor // (curN, outVol) view of buf
	in         *tensor.Tensor // the batch for the first step, else the previous step's out
	scratch    [][]float64    // per-chunk kernel scratch
	body       func(chunk, lo, hi int)
}

// run sends rows [lo, hi) of the step's input through its kernel.
func (s *step) run(chunk, lo, hi int) {
	s.bl.ForwardBatchRange(s.out, s.in, lo, hi, s.scratch[chunk])
}

// Engine is a compiled batch-first forward plan over an nn.Network.
type Engine struct {
	net     *nn.Network
	steps   []*step                 // F64 plan
	rows    func(chunk, lo, hi int) // runRows, bound once so a fan-out allocates nothing
	rowMACs int                     // multiply-accumulates per sample, the fan-out's work estimate
	inDim   int
	outVol  int
	chunks  int
	pool    *tensor.Pool
	wg      sync.WaitGroup

	prec tensor.Precision
	f32  *f32Plan  // non-nil iff prec == tensor.F32
	i8   []i8Stage // non-empty iff prec == tensor.I8

	capN, curN int

	probsBuf []float64
	probs    *tensor.Tensor // (n, outVol) view of probsBuf

	counter   *hwcost.Counter // never nil after Compile
	perSample hwcost.Cost     // modeled hardware cost of one sample
}

// layerSpec is one compute layer with its per-sample volumes, the
// shape-walk every tier's compile and rebind share.
type layerSpec struct {
	layer  nn.Layer
	inVol  int
	outVol int
}

// planSpecs walks net's layer stack, eliding Flatten (the identity on the
// batched representation), and returns the compute-layer specs plus the
// final per-sample output volume.
func planSpecs(net *nn.Network) ([]layerSpec, int) {
	shape := []int{net.InDim()}
	vol := net.InDim()
	var specs []layerSpec
	for _, l := range net.Layers() {
		outShape := l.OutputShape(shape)
		outVol := volume(outShape)
		if _, flat := l.(*nn.Flatten); !flat {
			specs = append(specs, layerSpec{layer: l, inVol: vol, outVol: outVol})
		}
		shape, vol = outShape, outVol
	}
	return specs, vol
}

// Compile builds an execution plan for net on the requested precision tier.
// It fails if a layer has no batched inference path on that tier: every
// compute layer must implement nn.BatchInfer (F64, and the non-dense stages
// of I8), nn.BatchInferF32 (F32), or be an *nn.Dense narrow enough for the
// int8 accumulator (I8 dense stages).
func Compile(net *nn.Network, opts Options) (*Engine, error) {
	e := &Engine{net: net, inDim: net.InDim(), pool: opts.Pool, prec: opts.Precision}
	if e.pool == nil {
		e.pool = tensor.SharedPool()
	}
	e.chunks = opts.Workers
	if e.chunks <= 0 {
		e.chunks = e.pool.Workers()
	}
	specs, outVol := planSpecs(net)
	e.outVol = outVol
	e.probs = tensor.New(0, outVol)
	var err error
	switch opts.Precision {
	case tensor.F64:
		err = e.compileF64(specs)
	case tensor.F32:
		err = e.compileF32(specs)
	case tensor.I8:
		err = e.compileI8(specs)
	default:
		err = fmt.Errorf("engine: unknown precision %v", opts.Precision)
	}
	if err != nil {
		return nil, err
	}
	e.counter = opts.Counter
	if e.counter == nil {
		e.counter = hwcost.NewCounter()
	}
	for _, sp := range specs {
		e.perSample.Add(hwcost.ModelLayerCostPrec(sp.layer, sp.inVol, sp.outVol, e.prec))
	}
	if opts.MaxBatch > 0 {
		e.setBatch(opts.MaxBatch)
	}
	return e, nil
}

// stepSpec is one step of a plan before it has workspaces: the network layers
// it runs and the kernel that runs them.
type stepSpec struct {
	layers []nn.Layer
	bl     nn.BatchInfer
	inVol  int
	outVol int
}

// layerStep is the step that runs one layer through its own BatchInfer kernel.
func layerStep(sp layerSpec) (stepSpec, error) {
	bl, ok := sp.layer.(nn.BatchInfer)
	if !ok {
		return stepSpec{}, fmt.Errorf("engine: layer %q (%T) has no batched inference path", sp.layer.Name(), sp.layer)
	}
	return stepSpec{layers: []nn.Layer{sp.layer}, bl: bl, inVol: sp.inVol, outVol: sp.outVol}, nil
}

// fuseSpecs groups the compute layers into the F64 plan's steps: every
// Conv2D, ReLU[, MaxPool2D] run nn.FuseConvBlock takes becomes one step,
// every other layer a step of its own. Compile and Rebind both plan through
// it, so a network rebinds onto a plan exactly when it fuses the same way.
func fuseSpecs(specs []layerSpec) ([]stepSpec, error) {
	layers := make([]nn.Layer, len(specs))
	for i, sp := range specs {
		layers[i] = sp.layer
	}
	var steps []stepSpec
	for i := 0; i < len(specs); {
		if blk, k := nn.FuseConvBlock(layers[i:]); k > 0 {
			steps = append(steps, stepSpec{layers: layers[i : i+k], bl: blk, inVol: specs[i].inVol, outVol: specs[i+k-1].outVol})
			i += k
			continue
		}
		st, err := layerStep(specs[i])
		if err != nil {
			return nil, err
		}
		steps = append(steps, st)
		i++
	}
	return steps, nil
}

// compileF64 builds the reference-tier steps and chains their views: each
// step reads the view the one before it writes.
func (e *Engine) compileF64(specs []layerSpec) error {
	fused, err := fuseSpecs(specs)
	if err != nil {
		return err
	}
	for _, sp := range fused {
		s := e.newStep(sp)
		if len(e.steps) > 0 {
			s.in = e.steps[len(e.steps)-1].out
		}
		e.steps = append(e.steps, s)
	}
	for _, sp := range specs {
		e.rowMACs += layerMACs(sp.layer)
	}
	e.rows = e.runRows
	return nil
}

// layerMACs counts the multiply-accumulates of one sample through l; layers
// without a weight matrix count as free.
func layerMACs(l nn.Layer) int {
	switch l := l.(type) {
	case *nn.Dense:
		return l.In() * l.Out()
	case *nn.Conv2D:
		g := l.Geom()
		return l.OutC() * g.InC * g.KH * g.KW * g.OutH() * g.OutW()
	}
	return 0
}

// newStep gives a planned step its per-chunk scratch and an empty output view
// that setBatch re-points as batches arrive; the I8 compile reuses it for
// every non-dense stage.
func (e *Engine) newStep(sp stepSpec) *step {
	s := &step{layers: sp.layers, bl: sp.bl, inVol: sp.inVol, outVol: sp.outVol, scratchLen: sp.bl.InferScratch()}
	s.out = tensor.New(0, s.outVol)
	s.scratch = make([][]float64, e.chunks)
	for c := range s.scratch {
		s.scratch[c] = make([]float64, s.scratchLen)
	}
	s.body = s.run
	return s
}

// kind names the layer types a step runs, "+"-joined for a fused run.
func kind(layers []nn.Layer) string {
	k := fmt.Sprintf("%T", layers[0])
	for _, l := range layers[1:] {
		k += fmt.Sprintf("+%T", l)
	}
	return k
}

// accepts reports why sp, planned from another network, cannot take the
// compiled step's place: it must run the same layer types (so the same
// fusion), over the same volumes, scratch and window geometries.
func (s *step) accepts(sp stepSpec) error {
	if kind(sp.layers) != kind(s.layers) || s.inVol != sp.inVol || s.outVol != sp.outVol || s.scratchLen != sp.bl.InferScratch() {
		return fmt.Errorf("engine: rebind step %s at layer %q does not match compiled step %s at layer %q",
			kind(sp.layers), sp.layers[0].Name(), kind(s.layers), s.layers[0].Name())
	}
	type windowed interface{ Geom() tensor.ConvGeom }
	for i, l := range sp.layers {
		w, ok := l.(windowed)
		if !ok {
			continue
		}
		if have := s.layers[i].(windowed).Geom(); w.Geom() != have {
			return fmt.Errorf("engine: rebind layer %q has geometry %+v, compiled layer %q has %+v",
				l.Name(), w.Geom(), s.layers[i].Name(), have)
		}
	}
	return nil
}

// MustCompile is Compile for statically known-good networks; it panics on
// error.
func MustCompile(net *nn.Network, opts Options) *Engine {
	e, err := Compile(net, opts)
	if err != nil {
		panic(err)
	}
	return e
}

// PlanCost returns the modeled per-sample hardware cost of the compiled
// plan, priced at the reference tile (hwcost.DefaultTileRows ×
// hwcost.DefaultTileCols) on the compiled tier (see Options.Precision).
// Rebind does not change it: the plan's architecture and tier — the only
// cost inputs — are invariant across rebinds.
func (e *Engine) PlanCost() hwcost.Cost { return e.perSample }

// Counter returns the counter the plan charges; never nil.
func (e *Engine) Counter() *hwcost.Counter { return e.counter }

// Rebind points the compiled plan at another network with the same
// architecture (typically a clone of the original with different weights:
// a fault model, a refreshed crossbar readout). Workspaces, views and
// precompiled bodies are all reused — only the layer bindings swap, and on
// the fast tiers the converted/quantized parameter caches are reloaded from
// the new network. It returns an error, leaving the engine untouched, if
// net's layer stack does not match the plan; callers then fall back to a
// fresh Compile.
func (e *Engine) Rebind(net *nn.Network) error {
	if net == e.net {
		// The reference tier reads the parameter tensors at call time, so
		// rebinding a network to itself is a no-op. The fast tiers snapshot
		// parameters at compile time — a same-network rebind is a sweep's way
		// of saying "the weights may have moved", so refresh the converted
		// caches (no-op on tensor.F64).
		e.ReloadParams()
		return nil
	}
	if net.InDim() != e.inDim {
		return fmt.Errorf("engine: rebind input dim %d != %d", net.InDim(), e.inDim)
	}
	specs, _ := planSpecs(net)
	var err error
	switch e.prec {
	case tensor.F32:
		err = e.rebindF32(specs)
	case tensor.I8:
		err = e.rebindI8(specs)
	default:
		err = e.rebindF64(specs)
	}
	if err != nil {
		return err
	}
	e.net = net
	return nil
}

// rebindF64 plans the incoming network as Compile would and swaps the step
// bindings if it lands on the compiled steps one for one. A network without
// the ReLU or the pool a compiled step fused plans into different steps and
// is turned away here, before anything is swapped.
func (e *Engine) rebindF64(specs []layerSpec) error {
	fused, err := fuseSpecs(specs)
	if err != nil {
		return err
	}
	for i, s := range e.steps {
		if i >= len(fused) {
			return fmt.Errorf("engine: rebind network ends before compiled step %s at layer %q", kind(s.layers), s.layers[0].Name())
		}
		if err := s.accepts(fused[i]); err != nil {
			return err
		}
	}
	if len(fused) > len(e.steps) {
		extra := fused[len(e.steps)]
		return fmt.Errorf("engine: rebind network continues past the plan's %d steps with %s at layer %q", len(e.steps), kind(extra.layers), extra.layers[0].Name())
	}
	for i, s := range e.steps {
		s.layers, s.bl = fused[i].layers, fused[i].bl
	}
	return nil
}

// setBatch sizes workspaces and the batch-length views for the compiled
// tier. Buffers grow when n exceeds the current capacity. The F64 plan
// re-points its views in place when n changes, so batches of any mix of
// sizes up to that capacity allocate nothing; the fast tiers rebuild theirs,
// so only a stream of same-size batches is allocation-free there.
func (e *Engine) setBatch(n int) {
	switch e.prec {
	case tensor.F32:
		e.setBatchF32(n)
	case tensor.I8:
		e.setBatchI8(n)
	default:
		e.setBatchF64(n)
	}
}

func (e *Engine) setBatchF64(n int) {
	if n > e.capN {
		for _, s := range e.steps {
			s.buf = make([]float64, n*s.outVol)
		}
		e.capN = n
		e.curN = 0
	}
	if n == e.curN {
		return
	}
	for _, s := range e.steps {
		s.out.ResliceRows(s.buf, n)
	}
	e.curN = n
}

// fanOutMinMACs is the work, in multiply-accumulates, below which a batch
// stays on the caller's goroutine. Handing a chunk to a pool worker costs a
// channel send and the wake-up of a parked goroutine, and on the 2-vCPU
// reference host that does not pay for itself until a batch is ≈ 1M MACs
// (250–400 µs of work): a 2-row LeNet-5 batch (0.8M) runs 1.05× slower fanned
// out and a 4-row one (1.7M) 0.98×, while the stock MLP's 16-row readout
// (14k MACs, ≈ 8 µs) paid up to 1.5×. CHANGES (ISSUE 21) has the sweep.
const fanOutMinMACs = 1 << 20

// runRows takes rows [lo, hi) of the batch through every step of the F64
// plan. Rows are independent through the whole plan, so this is also the
// pool body: a chunk of whole samples runs start to finish on one worker.
func (e *Engine) runRows(chunk, lo, hi int) {
	for _, s := range e.steps {
		s.run(chunk, lo, hi)
	}
}

// forwardF64 runs the batch through the plan, fanning out over the pool at
// most once per call (not once per layer) and not at all for a batch too
// small to repay it.
func (e *Engine) forwardF64(x *tensor.Tensor, n int) *tensor.Tensor {
	if len(e.steps) == 0 {
		return x
	}
	e.steps[0].in = x
	if e.chunks <= 1 || n == 1 || n*e.rowMACs < fanOutMinMACs {
		e.runRows(0, 0, n)
	} else {
		e.pool.RunWith(&e.wg, n, e.chunks, e.rows)
	}
	return e.steps[len(e.steps)-1].out
}

// ForwardBatch runs the (N, inDim) batch x through the plan and returns the
// (N, outDim) logits. When dst is non-nil the logits are copied into it and
// dst is returned; when dst is nil the engine's internal output view is
// returned, valid until the next call. Either way the computation happens in
// the preallocated workspaces: the steady state (dst nil, no batch larger
// than any before it) performs no allocations. An N=0 batch returns
// ErrEmptyBatch — there are no logits to produce, and the silent empty output
// it used to return scored as a healthy readout downstream.
func (e *Engine) ForwardBatch(dst, x *tensor.Tensor) (*tensor.Tensor, error) {
	tensor.AssertDims("engine.ForwardBatch x", x, tensor.Wildcard, e.inDim)
	n := x.Dim(0)
	if n == 0 {
		return nil, ErrEmptyBatch
	}
	e.setBatch(n)
	e.counter.Charge(e.perSample.Scale(uint64(n)))
	var cur *tensor.Tensor
	switch e.prec {
	case tensor.F32:
		cur = e.forwardF32(x, n)
	case tensor.I8:
		cur = e.forwardI8(x, n)
	default:
		cur = e.forwardF64(x, n)
	}
	if dst == nil {
		return cur, nil
	}
	tensor.AssertDims("engine.ForwardBatch dst", dst, n, e.outVol)
	copy(dst.Data(), cur.Data())
	return dst, nil
}

// Probs runs ForwardBatch and applies the row-wise softmax, returning the
// (N, outDim) confidence batch in a reused internal buffer (valid until the
// next call). Its method value satisfies the monitor's Infer signature, which
// is how a monitor Check feeds all M patterns through the accelerator model
// in one allocation-free call. It panics on an empty batch — readout
// consumers always probe with at least one pattern.
func (e *Engine) Probs(x *tensor.Tensor) *tensor.Tensor {
	logits, err := e.ForwardBatch(nil, x)
	if err != nil {
		panic(err)
	}
	n := logits.Dim(0)
	if need := n * e.outVol; need > cap(e.probsBuf) {
		e.probsBuf = make([]float64, need)
	}
	if n != e.probs.Dim(0) {
		e.probs.ResliceRows(e.probsBuf, n)
	}
	copy(e.probs.Data(), logits.Data())
	nn.SoftmaxInPlace(e.probs)
	return e.probs
}

// Predict returns the argmax class per sample: a row's first maximum (a NaN
// never beats one, so an all-NaN row predicts class 0). An empty batch
// predicts nothing.
func (e *Engine) Predict(x *tensor.Tensor) []int {
	if x.Dim(0) == 0 {
		return nil
	}
	logits, err := e.ForwardBatch(nil, x)
	if err != nil {
		panic(err)
	}
	n := logits.Dim(0)
	k := e.outVol
	ld := logits.Data()
	out := make([]int, n)
	for s := 0; s < n; s++ {
		row := ld[s*k : (s+1)*k]
		best, bi := math.Inf(-1), 0
		for j, v := range row {
			if v > best {
				best, bi = v, j
			}
		}
		out[s] = bi
	}
	return out
}

// Accuracy evaluates top-1 accuracy (Predict's argmax) on inputs x with
// labels y in batches of batchSize (≤ 0 selects 64); an empty x scores 0.
func (e *Engine) Accuracy(x *tensor.Tensor, y []int, batchSize int) float64 {
	nb := x.Dim(0)
	if nb == 0 {
		return 0
	}
	if batchSize <= 0 {
		batchSize = 64
	}
	correct := 0
	for s := 0; s < nb; s += batchSize {
		end := s + batchSize
		if end > nb {
			end = nb
		}
		batch := tensor.FromSlice(x.Data()[s*e.inDim:end*e.inDim], end-s, e.inDim)
		for i, p := range e.Predict(batch) {
			if p == y[s+i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(nb)
}

func volume(shape []int) int {
	v := 1
	for _, d := range shape {
		v *= d
	}
	return v
}
