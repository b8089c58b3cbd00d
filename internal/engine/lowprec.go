// Fast-tier plans: the float32 pipeline and the int8 quantized pipeline.
// Both keep the engine's workspace discipline — everything sized at compile
// or first batch, nothing allocated per call — and both snapshot parameters
// into converted caches at compile/rebind (or ReloadParams) rather than
// reading the f64 masters on the hot path.
//
// F32: the input batch is narrowed once, every step runs the nn.BatchInferF32
// kernels over bare float32 workspaces, and the final activation is widened
// once into an f64 view so downstream consumers (softmax, monitor scoring,
// serve) are tier-blind. A Dense step whose successor is a ReLU fuses the
// activation into the dense kernel's epilogue and elides the ReLU step —
// numerically identical to running it separately, one whole workspace pass
// cheaper.
//
// I8: dense layers run as quantized stages (per-row affine int8 activations
// against per-column int8 weights, int32 accumulation, f64 dequantization —
// the digital twin of the reram DAC→crossbar→ADC path); every other layer
// runs its ordinary f64 BatchInfer step, so inter-stage activations stay
// float64 and the plan accepts any network the F64 tier accepts, as long as
// its dense layers fit the int8 accumulator (tensor.MaxI8K).
package engine

import (
	"fmt"

	"reramtest/internal/nn"
	"reramtest/internal/tensor"
)

// stepF32 is one compiled float32 compute layer.
type stepF32 struct {
	layer      nn.Layer
	bl         nn.BatchInferF32
	dense      *nn.Dense // non-nil for the fused dense kernel
	fusedRelu  bool      // dense step absorbed the following ReLU
	inVol      int
	outVol     int
	scratchLen int
	params     []float32 // converted-parameter cache
	buf        []float32 // output workspace, cap >= capN*outVol
	scratch    [][]float32
	in         []float32 // input slice, set each ForwardBatch
	n          int       // current batch size, set each ForwardBatch
	body       func(chunk, lo, hi int)
}

// f32Plan is the float32 pipeline: narrowed input, f32 steps, widened output.
type f32Plan struct {
	steps  []*stepF32
	inBuf  []float32      // narrowed input batch, cap >= capN*inDim
	outBuf []float64      // widened output batch, cap >= capN*outVol
	out    *tensor.Tensor // (curN, outVol) view of outBuf
}

// compileF32 builds the float32 plan with the dense+ReLU peephole.
func (e *Engine) compileF32(specs []layerSpec) error {
	p := &f32Plan{}
	for i := 0; i < len(specs); i++ {
		sp := specs[i]
		bl, ok := sp.layer.(nn.BatchInferF32)
		if !ok {
			return fmt.Errorf("engine: layer %q (%T) has no float32 inference path; PrecisionF32 needs nn.BatchInferF32 on every compute layer", sp.layer.Name(), sp.layer)
		}
		s := &stepF32{layer: sp.layer, bl: bl, inVol: sp.inVol, outVol: sp.outVol, scratchLen: bl.InferScratchF32()}
		if d, isDense := sp.layer.(*nn.Dense); isDense {
			s.dense = d
			if i+1 < len(specs) {
				if _, isReLU := specs[i+1].layer.(*nn.ReLU); isReLU {
					s.fusedRelu = true
					i++ // the ReLU is the dense kernel's epilogue now
				}
			}
		}
		s.params = make([]float32, bl.InferParamsF32())
		bl.LoadParamsF32(s.params)
		s.scratch = make([][]float32, e.chunks)
		for c := range s.scratch {
			s.scratch[c] = make([]float32, s.scratchLen)
		}
		s.body = func(chunk, lo, hi int) {
			dst := s.buf[:s.n*s.outVol]
			if s.dense != nil {
				s.dense.ForwardBatchRangeF32Fused(dst, s.in, s.n, lo, hi, s.params, s.fusedRelu)
			} else {
				s.bl.ForwardBatchRangeF32(dst, s.in, s.n, s.inVol, s.outVol, lo, hi, s.params, s.scratch[chunk])
			}
		}
		p.steps = append(p.steps, s)
	}
	e.f32 = p
	return nil
}

// rebindF32 swaps the float32 step bindings and reloads the converted caches.
func (e *Engine) rebindF32(specs []layerSpec) error {
	want := e.f32.steps
	type bind struct {
		bl    nn.BatchInferF32
		dense *nn.Dense
	}
	pending := make([]bind, len(want))
	si := 0
	for i := 0; i < len(specs); i++ {
		sp := specs[i]
		if si >= len(want) {
			return fmt.Errorf("engine: rebind network has more compute layers than the f32 plan (%d)", len(want))
		}
		s := want[si]
		bl, ok := sp.layer.(nn.BatchInferF32)
		if !ok {
			return fmt.Errorf("engine: rebind layer %q (%T) has no float32 inference path", sp.layer.Name(), sp.layer)
		}
		if fmt.Sprintf("%T", sp.layer) != fmt.Sprintf("%T", s.layer) ||
			s.inVol != sp.inVol || s.outVol != sp.outVol ||
			s.scratchLen != bl.InferScratchF32() || len(s.params) != bl.InferParamsF32() {
			return fmt.Errorf("engine: rebind layer %q does not match compiled f32 step %q", sp.layer.Name(), s.layer.Name())
		}
		b := bind{bl: bl}
		if d, isDense := sp.layer.(*nn.Dense); isDense {
			b.dense = d
			if s.fusedRelu {
				if i+1 >= len(specs) {
					return fmt.Errorf("engine: rebind network is missing the ReLU fused into step %q", s.layer.Name())
				}
				if _, isReLU := specs[i+1].layer.(*nn.ReLU); !isReLU {
					return fmt.Errorf("engine: rebind layer %q (%T) where the f32 plan fused a ReLU", specs[i+1].layer.Name(), specs[i+1].layer)
				}
				i++
			}
		} else if s.dense != nil {
			return fmt.Errorf("engine: rebind layer %q does not match compiled f32 dense step %q", sp.layer.Name(), s.layer.Name())
		}
		pending[si] = b
		si++
	}
	if si != len(want) {
		return fmt.Errorf("engine: rebind network has %d compute layers, f32 plan has %d", si, len(want))
	}
	for i, s := range want {
		s.bl = pending[i].bl
		s.dense = pending[i].dense
		s.layer = s.bl.(nn.Layer)
		s.bl.LoadParamsF32(s.params)
	}
	return nil
}

func (e *Engine) setBatchF32(n int) {
	p := e.f32
	if n > e.capN {
		p.inBuf = make([]float32, n*e.inDim)
		for _, s := range p.steps {
			s.buf = make([]float32, n*s.outVol)
		}
		p.outBuf = make([]float64, n*e.outVol)
		e.capN = n
		e.curN = 0
	}
	if n == e.curN {
		return
	}
	p.out = tensor.FromSlice(p.outBuf[:n*e.outVol], n, e.outVol)
	e.curN = n
}

// forwardF32 narrows the batch, runs the f32 steps, widens the result.
func (e *Engine) forwardF32(x *tensor.Tensor, n int) *tensor.Tensor {
	p := e.f32
	tensor.ConvertF64ToF32(p.inBuf[:n*e.inDim], x.Data())
	cur := p.inBuf[:n*e.inDim]
	for _, s := range p.steps {
		s.in = cur
		s.n = n
		if e.chunks <= 1 || n == 1 {
			s.body(0, 0, n)
		} else {
			e.pool.RunWith(&e.wg, n, e.chunks, s.body)
		}
		cur = s.buf[:n*s.outVol]
	}
	tensor.ConvertF32ToF64(p.outBuf[:n*e.outVol], cur)
	return p.out
}

// stepI8 is one quantized dense stage.
type stepI8 struct {
	dense   *nn.Dense
	in, out int
	// weight-side caches, refreshed at compile/rebind/ReloadParams
	wqT    []int8 // (out, in) transposed quantized weights
	sw     []float64
	rowSum []int32
	bias   []float64
	// per-batch activation workspaces
	xq   []int8              // (capN, in) quantized input rows
	rq   []tensor.RowQuantI8 // per-row affine codes
	buf  []float64           // (capN, out) dequantized output
	outT *tensor.Tensor      // (curN, out) view of buf
	inT  *tensor.Tensor      // f64 input view, set each ForwardBatch
	body func(chunk, lo, hi int)
}

// i8Stage is one stage of the quantized plan: exactly one of gen (an
// ordinary f64 BatchInfer step) or q (a quantized dense stage) is set.
type i8Stage struct {
	gen *step
	q   *stepI8
}

// compileI8 builds the mixed quantized plan.
func (e *Engine) compileI8(specs []layerSpec) error {
	for _, sp := range specs {
		if d, isDense := sp.layer.(*nn.Dense); isDense {
			if d.In() > tensor.MaxI8K {
				return fmt.Errorf("engine: dense layer %q is %d wide; the int8 accumulator caps at %d (tensor.MaxI8K)", d.Name(), d.In(), tensor.MaxI8K)
			}
			q := newI8Step(d)
			e.i8 = append(e.i8, i8Stage{q: q})
			continue
		}
		st, err := layerStep(sp)
		if err != nil {
			return err
		}
		e.i8 = append(e.i8, i8Stage{gen: e.newStep(st)})
	}
	return nil
}

func newI8Step(d *nn.Dense) *stepI8 {
	q := &stepI8{dense: d, in: d.In(), out: d.Out()}
	q.wqT = make([]int8, q.in*q.out)
	q.sw = make([]float64, q.out)
	q.rowSum = make([]int32, q.out)
	q.bias = make([]float64, q.out)
	q.loadParams()
	q.body = func(_, lo, hi int) { q.run(lo, hi) }
	return q
}

// loadParams requantizes the weight columns and snapshots the bias from the
// bound dense layer's f64 masters.
func (q *stepI8) loadParams() {
	params := q.dense.Params()
	tensor.QuantizeWeightsI8(q.wqT, q.sw, q.rowSum, params[0].Value.Data(), q.in, q.out)
	copy(q.bias, params[1].Value.Data())
}

// run quantizes input rows [lo, hi) and computes their dequantized outputs.
// Rows are independent — quantization parameters are per row — so any chunk
// partition produces identical results.
func (q *stepI8) run(lo, hi int) {
	xd := q.inT.Data()
	for i := lo; i < hi; i++ {
		xrow := xd[i*q.in : (i+1)*q.in]
		qrow := q.xq[i*q.in : (i+1)*q.in]
		rq := tensor.QuantizeRowI8(qrow, xrow)
		q.rq[i] = rq
		drow := q.buf[i*q.out : (i+1)*q.out]
		for j := 0; j < q.out; j++ {
			acc := tensor.DotI8(qrow, q.wqT[j*q.in:(j+1)*q.in])
			drow[j] = tensor.DequantI8(acc, rq, q.sw[j], q.bias[j], q.rowSum[j])
		}
	}
}

// rebindI8 swaps the stage bindings and requantizes the weight caches.
func (e *Engine) rebindI8(specs []layerSpec) error {
	if len(specs) != len(e.i8) {
		return fmt.Errorf("engine: rebind network has %d compute layers, i8 plan has %d", len(specs), len(e.i8))
	}
	type bind struct {
		gen   stepSpec
		dense *nn.Dense
	}
	pending := make([]bind, len(specs))
	for i, sp := range specs {
		st := e.i8[i]
		if d, isDense := sp.layer.(*nn.Dense); isDense {
			if st.q == nil || st.q.in != d.In() || st.q.out != d.Out() {
				return fmt.Errorf("engine: rebind dense layer %q does not match i8 plan stage %d", d.Name(), i)
			}
			pending[i] = bind{dense: d}
			continue
		}
		if st.gen == nil {
			return fmt.Errorf("engine: rebind layer %q (%T) where the i8 plan has a quantized dense stage", sp.layer.Name(), sp.layer)
		}
		ls, err := layerStep(sp)
		if err != nil {
			return err
		}
		if err := st.gen.accepts(ls); err != nil {
			return err
		}
		pending[i] = bind{gen: ls}
	}
	for i, st := range e.i8 {
		if st.q != nil {
			st.q.dense = pending[i].dense
			st.q.loadParams()
			continue
		}
		st.gen.layers, st.gen.bl = pending[i].gen.layers, pending[i].gen.bl
	}
	return nil
}

func (e *Engine) setBatchI8(n int) {
	if n > e.capN {
		for _, st := range e.i8 {
			if st.gen != nil {
				st.gen.buf = make([]float64, n*st.gen.outVol)
				continue
			}
			st.q.xq = make([]int8, n*st.q.in)
			st.q.rq = make([]tensor.RowQuantI8, n)
			st.q.buf = make([]float64, n*st.q.out)
		}
		e.capN = n
		e.curN = 0
	}
	if n == e.curN {
		return
	}
	for _, st := range e.i8 {
		if st.gen != nil {
			st.gen.out = tensor.FromSlice(st.gen.buf[:n*st.gen.outVol], n, st.gen.outVol)
		} else {
			st.q.outT = tensor.FromSlice(st.q.buf[:n*st.q.out], n, st.q.out)
		}
	}
	e.curN = n
}

// runStep executes one f64 step of the I8 plan across the pool.
func (e *Engine) runStep(s *step, cur *tensor.Tensor, n int) *tensor.Tensor {
	s.in = cur
	if e.chunks <= 1 || n == 1 {
		s.body(0, 0, n)
	} else {
		e.pool.RunWith(&e.wg, n, e.chunks, s.body)
	}
	return s.out
}

// forwardI8 runs the mixed quantized pipeline; activations between stages
// stay float64.
func (e *Engine) forwardI8(x *tensor.Tensor, n int) *tensor.Tensor {
	cur := x
	for _, st := range e.i8 {
		if st.gen != nil {
			cur = e.runStep(st.gen, cur, n)
			continue
		}
		q := st.q
		q.inT = cur
		if e.chunks <= 1 || n == 1 {
			q.body(0, 0, n)
		} else {
			e.pool.RunWith(&e.wg, n, e.chunks, q.body)
		}
		cur = q.outT
	}
	return cur
}

// ReloadParams refreshes the fast tiers' parameter caches from the bound
// network's current f64 masters. The F64 tier reads live parameters and
// needs no reload; the fast tiers snapshot at Compile/Rebind, so callers
// that mutate weights in place under a live plan (crossbar refreshes,
// scrubs, fault sweeps) call this before the next ForwardBatch.
func (e *Engine) ReloadParams() {
	switch e.prec {
	case tensor.F32:
		for _, s := range e.f32.steps {
			s.bl.LoadParamsF32(s.params)
		}
	case tensor.I8:
		for _, st := range e.i8 {
			if st.q != nil {
				st.q.loadParams()
			}
		}
	}
}
