// Package nn implements the neural-network substrate the paper's methods run
// on: the layers, their parameters, and the destination-passing kernels the
// two compiled plans run — BatchInfer (infer.go) for internal/engine's
// inference plan and TrainKernel (train.go) for internal/tengine's training
// plan, which yields gradients both for the weights (training) and for the
// input (FGSM adversarial examples and the O-TP pattern-generation algorithm
// both differentiate the loss with respect to the input image). A layer has
// no forward method of its own: every forward pass runs through a plan.
//
// All kernels operate on batched tensors whose leading axis is the batch
// dimension: images are (N, C*H*W) flattened row-major, feature vectors are
// (N, D). The bits the kernels produce are pinned by fixtures, not by a
// second implementation: internal/engine/testdata/golden_logits.json holds
// the inference plan's logits and internal/tengine/testdata/golden_grads.json
// the training plan's gradients, input gradients and trained weights.
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

// Layer is one stage of a network: its name, parameters and shape. The
// computation lives in the BatchInfer and TrainKernel kernels every layer
// kind implements (Flatten, the identity on flat batches, implements
// neither: the plans elide it).
type Layer interface {
	Name() string
	Params() []*Param
	Clone() Layer
	// OutputShape returns the per-sample output shape given the per-sample
	// input shape, without running data through the layer.
	OutputShape(in []int) []int
}
