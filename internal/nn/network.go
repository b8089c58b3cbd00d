package nn

import (
	"fmt"
	"math"
	"strings"

	"reramtest/internal/rng"
	"reramtest/internal/tensor"
)

// Network is an ordered stack of layers ending in logits: raw (pre-softmax)
// class scores — the paper's Z(X) — because both the C-TP selector (logit
// standard deviation) and the detection metrics operate on
// logits/confidences directly. A Network holds the weights and the
// architecture; internal/engine compiles it into the inference plan and
// internal/tengine into the training plan.
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

// Clone deep-copies the network: independent weights, zeroed gradients.
// Fault models are clones of the clean model with an injector applied to the
// clone's parameters.
func (n *Network) Clone() *Network {
	ls := make([]Layer, len(n.layers))
	for i, l := range n.layers {
		ls[i] = l.Clone()
	}
	return &Network{name: n.name, layers: ls, inDim: n.inDim}
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
