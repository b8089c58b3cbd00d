// Package tengine compiles an nn.Network into a batch-first training plan:
// the forward AND backward passes run through destination-passing kernels
// over per-layer workspaces allocated once, so a steady-state
// ForwardBackward(batch) step — forward, loss, backprop, parameter gradients,
// optional input gradients — performs zero heap allocations.
//
// Gradient accumulation over the minibatch is parallel yet bit-identical to
// the serial plan. The invariant: parallelism partitions parameter *elements* (each element's
// whole sample fold runs on one worker, in ascending sample order — a
// degenerate left-leaning reduction tree), never the sample axis of a sum, so
// the addition order never depends on worker count. Two mechanisms implement
// it: layers with a direct fold (nn.TrainGradKernel — dense layers, whose
// per-sample gradients would dwarf the gradient itself) compute Param.Grad
// straight from the batch, one unit range per call; the rest (convolutions)
// write sample s's contribution into row s of a (N, paramVol) shard
// workspace that the engine folds over the sample axis. Both accumulate each
// element's per-sample contributions in ascending sample order — one IEEE
// addition chain, the one testdata/golden_grads.json pins; a balanced
// reduction tree would be equally deterministic but would reassociate the
// sums and move those bits. See DESIGN.md §11.
//
// After ForwardBackward the batch gradient is stored into every Param.Grad
// (overwriting, not accumulating), ready for SGD.StepAndZero (sgd.go). An
// Engine is a single-goroutine object like the layers it wraps; clone the
// network and compile per goroutine for concurrent training.
package tengine

import (
	"errors"
	"fmt"
	"sync"

	"reramtest/internal/hwcost"
	"reramtest/internal/nn"
	"reramtest/internal/tensor"
)

// ErrEmptyBatch is returned by ForwardBackward and ForwardBackwardSoft when
// the batch has zero samples: there is no gradient and no loss to report, and
// silently returning 0 would let an empty training shard masquerade as a
// perfectly converged one.
var ErrEmptyBatch = errors.New("tengine: empty batch")

// Options tunes a compilation.
type Options struct {
	// MaxBatch pre-sizes the workspaces in samples. 0 defers allocation to
	// the first ForwardBackward; workspaces grow on demand either way.
	MaxBatch int
	// Workers caps the per-layer chunk parallelism. 0 uses the pool's worker
	// count; 1 forces serial execution.
	Workers int
	// Pool supplies the worker pool. nil selects tensor.SharedPool(), which
	// degrades to inline execution on a single-core host.
	Pool *tensor.Pool
	// InputGrad keeps the backward pass going through the first layer to
	// produce dL/d(input) — the tap the O-TP generator and FGSM read via
	// InputGrad(). Off by default: plain training never needs it and the
	// first layer's input-gradient matmul is pure overhead.
	InputGrad bool
	// NoParamGrads drops the parameter-gradient folds from the plan: no
	// shard workspaces, no reductions, Param.Grad tensors untouched. The
	// input-gradient consumers (O-TP synthesis, FGSM) set this — Eq. 1 only
	// ever reads dL/d(input).
	NoParamGrads bool
	// Counter receives the plan's modeled hardware charges, priced at the
	// reference tile (hwcost.DefaultTileRows × hwcost.DefaultTileCols); nil
	// compiles a private one. Pass the owning device's counter so training
	// spend lands on the device's meter, booked to ClassRepair when the
	// device's owner settles it after a retraining repair.
	Counter *hwcost.Counter
}

// step is one compiled compute layer: its kernels, its workspaces, and the
// precompiled bodies that run batch chunks and gradient folds through it.
type step struct {
	layer   nn.Layer
	tk      nn.TrainKernel
	bwdPrep nn.TrainBackPrep // non-nil for layers with a serial pre-backward hook

	inVol, outVol int
	paramVol      int // total parameter volume = shard row stride
	dims          nn.TrainDims

	outBuf   []float64 // forward output workspace, cap >= capN*outVol
	gradBuf  []float64 // dL/d(input) workspace, nil for an untapped first step
	shardBuf []float64 // per-sample parameter gradients, cap >= capN*paramVol
	intBuf   []int
	scratch  [][]float64 // per-chunk kernel scratch

	// current-batch views and prefixes, rebuilt only when the size changes
	out, grad *tensor.Tensor
	ints      []int
	shard     []float64

	in      *tensor.Tensor // input view, set each pass
	gradOut *tensor.Tensor // dL/d(output), set each backward pass

	fwdBody, bwdBody func(chunk, lo, hi int)
	redBodies        []func(chunk, lo, hi int) // one fixed-order fold per param
	redLens          []int
}

// Engine is a compiled batch-first forward+backward plan over an nn.Network.
type Engine struct {
	net       *nn.Network
	steps     []*step
	inDim     int
	outVol    int
	chunks    int
	pool      *tensor.Pool
	inputGrad bool
	wg        sync.WaitGroup

	capN, curN int

	counter *hwcost.Counter // never nil after Compile
	perStep hwcost.Cost     // modeled hardware cost of one sample's fwd+bwd

	lossBuf  []float64      // dL/d(logits) workspace
	lossGrad *tensor.Tensor // (curN, outVol) view of lossBuf
}

// Compile builds a training plan for net. It fails if a layer other than
// Flatten (elided: the identity both ways on the batched representation) does
// not implement nn.TrainKernel — such a network has no batched training
// semantics.
func Compile(net *nn.Network, opts Options) (*Engine, error) {
	e := &Engine{net: net, inDim: net.InDim(), pool: opts.Pool, inputGrad: opts.InputGrad}
	if e.pool == nil {
		e.pool = tensor.SharedPool()
	}
	e.chunks = opts.Workers
	if e.chunks <= 0 {
		e.chunks = e.pool.Workers()
	}
	if err := e.compileSteps(net, opts); err != nil {
		return nil, err
	}
	e.counter = opts.Counter
	if e.counter == nil {
		e.counter = hwcost.NewCounter()
	}
	// One training step prices at 3× the forward model per sample: the
	// backward pass re-drives every layer twice (dL/d(input) plus the
	// parameter-gradient fold), the standard accounting for in-situ training.
	for _, s := range e.steps {
		e.perStep.Add(hwcost.ModelLayerCost(s.layer, s.inVol, s.outVol).Scale(3))
	}
	if opts.MaxBatch > 0 {
		e.setBatch(opts.MaxBatch)
	}
	return e, nil
}

// compileSteps walks the network: bind every compute layer's training
// kernels and precompile the chunk bodies and gradient folds.
func (e *Engine) compileSteps(net *nn.Network, opts Options) error {
	shape := []int{net.InDim()}
	vol := net.InDim()
	for _, l := range net.Layers() {
		outShape := l.OutputShape(shape)
		outVol := volume(outShape)
		if _, flat := l.(*nn.Flatten); flat {
			shape, vol = outShape, outVol
			continue
		}
		tk, ok := l.(nn.TrainKernel)
		if !ok {
			return fmt.Errorf("tengine: layer %q (%T) has no batched training path", l.Name(), l)
		}
		s := &step{layer: l, tk: tk, inVol: vol, outVol: outVol, dims: tk.TrainDims()}
		if bp, ok := l.(nn.TrainBackPrep); ok {
			s.bwdPrep = bp
		}
		directGrad, hasDirect := l.(nn.TrainGradKernel)
		if !hasDirect && !opts.NoParamGrads {
			for _, p := range l.Params() {
				s.paramVol += p.Value.Len()
			}
		}
		s.scratch = make([][]float64, e.chunks)
		for c := range s.scratch {
			s.scratch[c] = make([]float64, s.dims.Scratch)
		}
		s.fwdBody = func(chunk, lo, hi int) {
			s.tk.TrainForwardRange(s.out, s.in, lo, hi,
				nn.TrainCache{Ints: s.ints, Scratch: s.scratch[chunk], Shard: s.shard})
		}
		s.bwdBody = func(chunk, lo, hi int) {
			s.tk.TrainBackwardRange(s.grad, s.gradOut, s.in, s.out, lo, hi,
				nn.TrainCache{Ints: s.ints, Scratch: s.scratch[chunk], Shard: s.shard})
		}
		// one fold body per parameter: partition its elements (or the layer's
		// coarser units) across chunks; each element folds the whole sample
		// axis in order on one worker. Layers with a direct fold compute
		// gradients straight into Param.Grad; the rest reduce shard rows.
		if opts.NoParamGrads {
			// input-gradient-only plan: no folds at all
		} else if hasDirect {
			for pi := range l.Params() {
				pi := pi
				s.redBodies = append(s.redBodies, func(_, lo, hi int) {
					directGrad.TrainGradRange(pi, s.gradOut, s.in, lo, hi)
				})
				s.redLens = append(s.redLens, directGrad.TrainGradUnits(pi))
			}
		} else {
			off := 0
			for _, p := range l.Params() {
				gd := p.Grad.Data()
				colBase := off
				body := func(_, lo, hi int) {
					sd, pv, n := s.shard, s.paramVol, e.curN
					for j := lo; j < hi; j++ {
						col := colBase + j
						acc := 0.0
						for smp := 0; smp < n; smp++ {
							acc += sd[smp*pv+col]
						}
						gd[j] = acc
					}
				}
				s.redBodies = append(s.redBodies, body)
				s.redLens = append(s.redLens, p.Value.Len())
				off += p.Value.Len()
			}
		}
		e.steps = append(e.steps, s)
		shape, vol = outShape, outVol
	}
	if len(e.steps) == 0 {
		return fmt.Errorf("tengine: network %q has no trainable compute layers", net.Name())
	}
	e.outVol = vol
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

// Network returns the network the engine is bound to.
func (e *Engine) Network() *nn.Network { return e.net }

// setBatch sizes workspaces and rebuilds the (n, vol) views. Buffers grow
// when n exceeds capacity; views are rebuilt only when n changes, so a steady
// stream of same-size batches allocates nothing.
func (e *Engine) setBatch(n int) {
	if n > e.capN {
		for i, s := range e.steps {
			s.outBuf = make([]float64, n*s.outVol)
			if i > 0 || e.inputGrad {
				s.gradBuf = make([]float64, n*s.inVol)
			}
			if s.paramVol > 0 {
				s.shardBuf = make([]float64, n*s.paramVol)
			}
			if s.dims.IntsPerSample > 0 {
				s.intBuf = make([]int, n*s.dims.IntsPerSample)
			}
		}
		e.lossBuf = make([]float64, n*e.outVol)
		e.capN = n
		e.curN = 0
	}
	if n == e.curN {
		return
	}
	for _, s := range e.steps {
		s.out = tensor.FromSlice(s.outBuf[:n*s.outVol], n, s.outVol)
		if s.gradBuf != nil {
			s.grad = tensor.FromSlice(s.gradBuf[:n*s.inVol], n, s.inVol)
		}
		s.ints = s.intBuf[:n*s.dims.IntsPerSample]
		s.shard = s.shardBuf[:n*s.paramVol]
	}
	e.lossGrad = tensor.FromSlice(e.lossBuf[:n*e.outVol], n, e.outVol)
	e.curN = n
}

// forward runs the batch through the plan and leaves logits in the last
// step's output workspace.
func (e *Engine) forward(x *tensor.Tensor) *tensor.Tensor {
	tensor.AssertDims("tengine.forward x", x, tensor.Wildcard, e.inDim)
	n := x.Dim(0)
	e.setBatch(n)
	cur := x
	for _, s := range e.steps {
		s.in = cur
		if e.chunks <= 1 || n == 1 {
			s.fwdBody(0, 0, n)
		} else {
			e.pool.RunWith(&e.wg, n, e.chunks, s.fwdBody)
		}
		cur = s.out
	}
	return cur
}

// backward consumes e.lossGrad (dL/d logits), back-propagates through the
// plan and folds every step's gradient shards into its Param.Grad tensors.
func (e *Engine) backward() {
	n := e.curN
	up := e.lossGrad
	for i := len(e.steps) - 1; i >= 0; i-- {
		s := e.steps[i]
		s.gradOut = up
		if s.bwdPrep != nil && s.grad != nil {
			// serial: whatever the hook prepares (e.g. a transposed weight
			// view) is read-only to the chunked bodies below
			s.bwdPrep.TrainBackPrep()
		}
		if e.chunks <= 1 || n == 1 {
			s.bwdBody(0, 0, n)
		} else {
			e.pool.RunWith(&e.wg, n, e.chunks, s.bwdBody)
		}
		for b, body := range s.redBodies {
			if e.chunks <= 1 {
				body(0, 0, s.redLens[b])
			} else {
				e.pool.RunWith(&e.wg, s.redLens[b], e.chunks, body)
			}
		}
		up = s.grad
	}
}

// ForwardBackward runs one training step's compute on a (N, inDim) batch with
// integer labels: forward pass, mean softmax cross-entropy, backward pass.
// Every Param.Grad holds the batch gradient afterwards (overwritten, not
// accumulated) and the input
// gradient is available from InputGrad() when compiled with the tap. Returns
// the loss, or ErrEmptyBatch for an N=0 batch. Steady state performs zero heap
// allocations.
func (e *Engine) ForwardBackward(x *tensor.Tensor, labels []int) (float64, error) {
	n := x.Dim(0)
	if n == 0 {
		return 0, ErrEmptyBatch
	}
	e.counter.Charge(e.perStep.Scale(uint64(n)))
	logits := e.forward(x)
	loss := nn.CrossEntropyInto(e.lossGrad, logits, labels)
	e.backward()
	return loss, nil
}

// ForwardBackwardSoft is ForwardBackward against target probability
// distributions (label smoothing, the O-TP soft/hard constraint terms).
func (e *Engine) ForwardBackwardSoft(x, target *tensor.Tensor) (float64, error) {
	n := x.Dim(0)
	if n == 0 {
		return 0, ErrEmptyBatch
	}
	e.counter.Charge(e.perStep.Scale(uint64(n)))
	logits := e.forward(x)
	loss := nn.SoftCrossEntropyInto(e.lossGrad, logits, target)
	e.backward()
	return loss, nil
}

// Logits returns the (N, outDim) logits of the most recent pass as a view
// into the engine workspace, valid until the next call.
func (e *Engine) Logits() *tensor.Tensor {
	return e.steps[len(e.steps)-1].out
}

// InputGrad returns dL/d(input) of the most recent backward pass as a
// (N, inDim) view into the engine workspace, valid until the next call. It
// panics unless the engine was compiled with Options.InputGrad.
func (e *Engine) InputGrad() *tensor.Tensor {
	if !e.inputGrad {
		panic("tengine: InputGrad requires Options.InputGrad at compile time")
	}
	return e.steps[0].grad
}

func volume(shape []int) int {
	v := 1
	for _, d := range shape {
		v *= d
	}
	return v
}
