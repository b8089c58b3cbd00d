// Package nn implements the neural-network substrate the paper's methods run
// on: layer-wise forward/backward propagation with gradients available both
// for the weights (training) and for the input (FGSM adversarial examples and
// the O-TP pattern-generation algorithm both differentiate the loss with
// respect to the input image).
//
// All layers operate on batched tensors whose leading axis is the batch
// dimension: images are (N, C*H*W) flattened row-major, feature vectors are
// (N, D). Layers are single-goroutine objects; clone the network to run
// concurrent inferences.
package nn

import (
	"reramtest/internal/tensor"
)

// Param is a trainable parameter with its accumulated gradient.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// newParam allocates a parameter with a zeroed gradient of matching shape.
func newParam(name string, value *tensor.Tensor) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Shape()...)}
}

// clone deep-copies the parameter (gradients start zeroed).
func (p *Param) clone() *Param {
	return newParam(p.Name, p.Value.Clone())
}

// Layer is one differentiable stage of a network.
//
// Forward consumes a batch and returns the batch of outputs. Backward
// consumes dL/d(output) for the most recent Forward call and returns
// dL/d(input), accumulating parameter gradients into Params().Grad along the
// way. Layers cache whatever they need between Forward and Backward, so a
// Backward call must always be paired with the immediately preceding Forward.
type Layer interface {
	Name() string
	Forward(x *tensor.Tensor) *tensor.Tensor
	Backward(gradOut *tensor.Tensor) *tensor.Tensor
	Params() []*Param
	Clone() Layer
	// OutputShape returns the per-sample output shape given the per-sample
	// input shape, without running data through the layer.
	OutputShape(in []int) []int
}
