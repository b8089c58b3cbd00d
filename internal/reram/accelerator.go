package reram

import (
	"fmt"

	"reramtest/internal/hwcost"
	"reramtest/internal/nn"
	"reramtest/internal/rng"
	"reramtest/internal/tensor"
)

// Accelerator maps every weight-bearing layer of a trained network onto
// tiled ReRAM crossbars and executes inference on the simulated hardware.
// Pooling, activations and biases run in digital peripheral logic, as in
// ISAAC/PRIME-class designs.
type Accelerator struct {
	model   *nn.Network          // digital skeleton (owns biases and digital layers)
	engines map[int]*TiledLinear // layer index → crossbar group
	hours   float64

	// readout is the in-place-refreshed weight-level view returned by
	// RefreshReadout; readoutBufs stages each engine's (Out, In) effective
	// weights so repeated readouts allocate nothing.
	readout     *nn.Network
	readoutBufs map[int]*tensor.Tensor

	// ws holds per-layer inference workspaces, grown on demand by Infer so a
	// steady stream of same-size batches through the analog path allocates
	// nothing. Like the layers themselves, this makes an Accelerator a
	// single-goroutine object.
	ws map[int]*layerWorkspace
}

// layerWorkspace is the reusable state one Infer step needs: the output
// batch, plus the conv column/vector staging or digital-kernel scratch.
type layerWorkspace struct {
	buf  []float64      // output storage, cap >= n*outVol
	out  *tensor.Tensor // (n, outVol) view of buf
	n    int            // batch size the view was built for
	cols []float64      // conv: im2col staging (ckk*spatial)
	vec  []float64      // conv: one column (ckk)
	y    []float64      // crossbar MatVecInto destination (engine.Out)
}

// batch returns the (n, vol) output view, growing the backing buffer and
// rebuilding the tensor header only when the batch size changes.
func (w *layerWorkspace) batch(n, vol int) *tensor.Tensor {
	if need := n * vol; need > cap(w.buf) {
		w.buf = make([]float64, need)
		w.n = 0
	}
	if w.n != n {
		w.out = tensor.FromSlice(w.buf[:n*vol], n, vol)
		w.n = n
	}
	return w.out
}

// NewAccelerator programs net's weights into crossbars. net itself is cloned;
// later changes to net do not affect the accelerator.
func NewAccelerator(net *nn.Network, cfg Config, seed int64) *Accelerator {
	a := &Accelerator{model: net.Clone(), engines: make(map[int]*TiledLinear)}
	r := rng.New(seed)
	for li, layer := range a.model.Layers() {
		switch l := layer.(type) {
		case *nn.Conv2D:
			a.engines[li] = MapLinear(l.Params()[0].Value, cfg, r.Split())
		case *nn.Dense:
			// Dense weights are stored (In, Out); crossbar mapping wants
			// (Out, In) with inputs on word-lines.
			a.engines[li] = MapLinear(tensor.Transpose2D(l.Params()[0].Value), cfg, r.Split())
		}
	}
	return a
}

// SetCounter attaches a caller-owned cost counter to every tile; nil
// detaches it. A new accelerator is unmetered. The counter meters in-field
// spend: attached after commissioning, so fabrication-time programming never
// charges, and kept by the caller, so cumulative device spend survives
// accelerator replacement.
func (a *Accelerator) SetCounter(c *hwcost.Counter) {
	for _, e := range a.engines {
		e.SetCounter(c)
	}
}

// CommissionCost is the sticker write cost of programming every array cell
// once — what deploying (or redeploying) the full weight set costs. Initial
// fabrication-time commissioning happens before the counter attaches and is
// never charged; callers that commission a replacement part IN the field
// (module-swap repair) charge this explicitly so the fleet ledger sees the
// write pass the new part absorbed.
func (a *Accelerator) CommissionCost() hwcost.Cost {
	var c hwcost.Cost
	for _, e := range a.engines {
		c.Add(e.commissionCost())
	}
	return c
}

// Hours returns the simulated in-field time elapsed.
func (a *Accelerator) Hours() float64 { return a.hours }

// TileCount returns the total number of crossbar arrays in the accelerator.
func (a *Accelerator) TileCount() int {
	n := 0
	for _, e := range a.engines {
		n += e.TileCount()
	}
	return n
}

// AdvanceTime ages every array by the given number of hours (drift and
// soft-error accumulation).
func (a *Accelerator) AdvanceTime(hours float64) {
	a.hours += hours
	for _, e := range a.engines {
		e.AdvanceTime(hours)
	}
}

// InjectStuckAt adds field stuck-at faults across all arrays.
func (a *Accelerator) InjectStuckAt(p0, p1 float64) {
	for _, e := range a.engines {
		e.InjectStuckAt(p0, p1)
	}
}

// InjectSoftErrors disturbs a fraction p of healthy cells across all arrays
// in one instantaneous shower. Reprogram clears the damage.
func (a *Accelerator) InjectSoftErrors(p float64) {
	for _, e := range a.engines {
		e.InjectSoftErrors(p)
	}
}

// Reprogram rewrites all arrays to their target conductances — the cheap
// repair action a monitor triggers when drift (not hard faults) dominates.
func (a *Accelerator) Reprogram() {
	for _, e := range a.engines {
		e.Reprogram()
	}
}

// ProgramNetwork re-deploys a full set of weights onto the existing arrays —
// the final step of the cloud-edge retraining repair. The source network
// must have the same architecture the accelerator was built from. Stuck
// cells ignore the write; healthy cells are reprogrammed (clearing drift and
// soft errors along the way). Digital-side parameters (biases) are updated
// too.
func (a *Accelerator) ProgramNetwork(net *nn.Network) {
	src := net.Params()
	dst := a.model.Params()
	if len(src) != len(dst) {
		panic(fmt.Sprintf("reram: ProgramNetwork got %d params, accelerator has %d", len(src), len(dst)))
	}
	for i, p := range dst {
		p.Value.CopyFrom(src[i].Value)
	}
	for li, layer := range a.model.Layers() {
		e, ok := a.engines[li]
		if !ok {
			continue
		}
		switch layer.(type) {
		case *nn.Conv2D:
			e.ProgramWeights(layer.Params()[0].Value)
		case *nn.Dense:
			e.ProgramWeights(tensor.Transpose2D(layer.Params()[0].Value))
		}
	}
}

// ReadoutNetwork exports the current effective weights into a copy of the
// model: the weight-level view of the hardware state. DAC/ADC quantization
// is not represented (use Infer for the full analog path). The returned
// network is a fresh clone the caller owns — retraining repairs mutate it
// freely. Read-only consumers that poll the hardware state repeatedly should
// prefer RefreshReadout, which reuses one cached clone.
func (a *Accelerator) ReadoutNetwork() *nn.Network {
	net := a.model.Clone()
	a.exportReadout(net)
	return net
}

// RefreshReadout updates and returns the accelerator's cached readout
// network. The same *nn.Network is refreshed in place on every call —
// digital parameters are re-synced from the model and crossbar weights are
// re-read through per-engine staging buffers, so steady-state refreshes
// allocate nothing. That pointer stability is what lets an inference engine
// compiled over the readout stay bound across refreshes: the kernels read
// the parameter tensors at call time and simply see the new values. Callers
// must not mutate the returned network; use ReadoutNetwork for an owned copy.
func (a *Accelerator) RefreshReadout() *nn.Network {
	if a.readout == nil {
		a.readout = a.model.Clone()
	} else {
		src := a.model.Params()
		for i, p := range a.readout.Params() {
			p.Value.CopyFrom(src[i].Value)
		}
	}
	a.exportReadout(a.readout)
	return a.readout
}

// exportReadout copies every engine's effective weights into dst's
// parameters, transposing dense layers back to their (In, Out) storage.
// dst must share the model's architecture.
func (a *Accelerator) exportReadout(dst *nn.Network) {
	if a.readoutBufs == nil {
		a.readoutBufs = make(map[int]*tensor.Tensor)
	}
	for li, layer := range dst.Layers() {
		e, ok := a.engines[li]
		if !ok {
			continue
		}
		buf := a.readoutBufs[li]
		if buf == nil {
			buf = tensor.New(e.Out, e.In)
			a.readoutBufs[li] = buf
		}
		e.EffectiveWeightsInto(buf)
		switch layer.(type) {
		case *nn.Conv2D:
			layer.Params()[0].Value.CopyFrom(buf)
		case *nn.Dense:
			tensor.Transpose2DInto(layer.Params()[0].Value, buf)
		}
	}
}

// Infer runs a (N, D) batch through the full analog path: convolutions and
// dense layers execute as crossbar MatVecs with DAC/ADC quantization;
// everything else runs through the digital skeleton's batched inference
// kernels. Returns the (N, classes) logits in a per-accelerator workspace
// that is reused by the next Infer call — callers that need the batch to
// outlive the next readout must Clone it. Flatten is elided: the batch is
// already flat.
func (a *Accelerator) Infer(x *tensor.Tensor) *tensor.Tensor {
	tensor.AssertDims("reram.Infer x", x, tensor.Wildcard, a.model.InDim())
	n := x.Dim(0)
	if a.ws == nil {
		a.ws = make(map[int]*layerWorkspace)
	}
	cur := x
	for li, layer := range a.model.Layers() {
		if _, flat := layer.(*nn.Flatten); flat {
			continue
		}
		w := a.ws[li]
		if w == nil {
			w = &layerWorkspace{}
			a.ws[li] = w
		}
		engine, mapped := a.engines[li]
		if !mapped {
			bl := layer.(nn.BatchInfer) // every layer but Flatten has one
			outVol := volume(layer.OutputShape([]int{cur.Len() / n}))
			out := w.batch(n, outVol)
			if need := bl.InferScratch(); len(w.cols) < need {
				w.cols = make([]float64, need)
			}
			bl.ForwardBatchRange(out, cur, 0, n, w.cols)
			cur = out
			continue
		}
		switch l := layer.(type) {
		case *nn.Dense:
			out := w.batch(n, l.Out())
			if len(w.y) < l.Out() {
				w.y = make([]float64, l.Out())
			}
			od, bias := out.Data(), l.Params()[1].Value.Data()
			cd := cur.Data()
			for s := 0; s < n; s++ {
				engine.MatVecInto(w.y, cd[s*l.In():(s+1)*l.In()])
				row := od[s*l.Out() : (s+1)*l.Out()]
				for j := range row {
					row[j] = w.y[j] + bias[j]
				}
			}
			cur = out
		case *nn.Conv2D:
			g := l.Geom()
			spatial := g.OutH() * g.OutW()
			ckk := g.InC * g.KH * g.KW
			inVol := g.InC * g.InH * g.InW
			out := w.batch(n, l.OutC()*spatial)
			if len(w.cols) < ckk*spatial {
				w.cols = make([]float64, ckk*spatial)
			}
			if len(w.vec) < ckk {
				w.vec = make([]float64, ckk)
			}
			if len(w.y) < l.OutC() {
				w.y = make([]float64, l.OutC())
			}
			cols, vec, y := w.cols[:ckk*spatial], w.vec[:ckk], w.y[:l.OutC()]
			od, bias := out.Data(), l.Params()[1].Value.Data()
			cd := cur.Data()
			for s := 0; s < n; s++ {
				tensor.Im2ColInto(cols, cd[s*inVol:(s+1)*inVol], g)
				for p := 0; p < spatial; p++ {
					for r := 0; r < ckk; r++ {
						vec[r] = cols[r*spatial+p]
					}
					engine.MatVecInto(y, vec)
					for oc := 0; oc < l.OutC(); oc++ {
						od[s*l.OutC()*spatial+oc*spatial+p] = y[oc] + bias[oc]
					}
				}
			}
			cur = out
		}
	}
	return cur
}

func volume(shape []int) int {
	v := 1
	for _, d := range shape {
		v *= d
	}
	return v
}
