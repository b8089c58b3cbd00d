package nn

import (
	"fmt"
	"math"
	"strings"

	"reramtest/internal/rng"
	"reramtest/internal/tensor"
)

// Network is an ordered stack of layers ending in logits. Forward returns
// raw (pre-softmax) class scores — the paper's Z(X) — because both the C-TP
// selector (logit standard deviation) and the detection metrics operate on
// logits/confidences directly.
type Network struct {
	name   string
	layers []Layer
	inDim  int // per-sample flattened input size
}

// NewNetwork builds a network over the given layers. inDim is the flattened
// per-sample input size (e.g. 784 for 28×28 grayscale).
func NewNetwork(name string, inDim int, layers ...Layer) *Network {
	if inDim <= 0 {
		panic(fmt.Sprintf("nn: network %q needs positive input dim, got %d", name, inDim))
	}
	return &Network{name: name, layers: layers, inDim: inDim}
}

// Name returns the network name.
func (n *Network) Name() string { return n.name }

// InDim returns the flattened per-sample input size.
func (n *Network) InDim() int { return n.inDim }

// Layers returns the layer stack (do not mutate).
func (n *Network) Layers() []Layer { return n.layers }

// Params returns every trainable parameter in layer order.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// NumParams returns the total scalar parameter count.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += p.Value.Len()
	}
	return total
}

// ZeroGrad clears every parameter gradient.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.Grad.Zero()
	}
}

// Clone deep-copies the network: independent weights, zeroed gradients, no
// shared caches. Fault models are clones of the clean model with an injector
// applied to the clone's parameters.
func (n *Network) Clone() *Network {
	ls := make([]Layer, len(n.layers))
	for i, l := range n.layers {
		ls[i] = l.Clone()
	}
	return &Network{name: n.name, layers: ls, inDim: n.inDim}
}

// Forward runs a (N, inDim) batch through the stack and returns logits.
func (n *Network) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != n.inDim {
		panic(fmt.Sprintf("nn: network %q expects (N, %d) input, got %v", n.name, n.inDim, x.Shape()))
	}
	cur := x
	for _, l := range n.layers {
		cur = l.Forward(cur)
	}
	return cur
}

// Backward back-propagates dL/d(logits) through the stack, accumulating
// parameter gradients, and returns dL/d(input) — the input gradient used by
// FGSM and the O-TP generator.
func (n *Network) Backward(gradLogits *tensor.Tensor) *tensor.Tensor {
	cur := gradLogits
	for i := len(n.layers) - 1; i >= 0; i-- {
		cur = n.layers[i].Backward(cur)
	}
	return cur
}

// Predict returns the argmax class for each sample in the batch.
func (n *Network) Predict(x *tensor.Tensor) []int {
	logits := n.Forward(x)
	nb := logits.Dim(0)
	k := logits.Len() / nb
	ld := logits.Data()
	out := make([]int, nb)
	for s := 0; s < nb; s++ {
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

// Accuracy evaluates top-1 accuracy of the network on inputs x with integer
// labels y, processing in batches of batchSize.
func (n *Network) Accuracy(x *tensor.Tensor, y []int, batchSize int) float64 {
	nb := x.Dim(0)
	if nb == 0 {
		return 0
	}
	if batchSize <= 0 {
		batchSize = 64
	}
	correct := 0
	for s := 0; s < nb; s += batchSize {
		e := s + batchSize
		if e > nb {
			e = nb
		}
		batch := tensor.FromSlice(x.Data()[s*n.inDim:e*n.inDim], e-s, n.inDim)
		for i, p := range n.Predict(batch) {
			if p == y[s+i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(nb)
}

// Summary renders a human-readable architecture table.
func (n *Network) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (input %d)\n", n.name, n.inDim)
	for _, l := range n.layers {
		np := 0
		for _, p := range l.Params() {
			np += p.Value.Len()
		}
		fmt.Fprintf(&b, "  %-24s params=%d\n", l.Name(), np)
	}
	fmt.Fprintf(&b, "  total params: %d\n", n.NumParams())
	return b.String()
}

// heInit draws a weight tensor of the given shape from N(0, sqrt(2/fanIn)),
// the standard initialisation for ReLU stacks.
func heInit(r *rng.RNG, fanIn int, shape ...int) *tensor.Tensor {
	std := math.Sqrt(2 / float64(fanIn))
	return tensor.Randn(r, 0, std, shape...)
}
