package nn

import (
	"fmt"
	"math"

	"reramtest/internal/tensor"
)

// Softmax converts a (N, n) batch of logits to row-wise probability
// distributions, numerically stabilised by max subtraction.
func Softmax(logits *tensor.Tensor) *tensor.Tensor {
	n := logits.Dim(0)
	k := logits.Len() / n
	out := logits.Clone().Reshape(n, k)
	SoftmaxInPlace(out)
	return out
}

// SoftmaxInPlace converts a (N, n) batch of logits to row-wise probability
// distributions in place, through the same max-subtracted row kernel as
// Softmax (bit-identical results, no allocation). The batch inference engine
// uses it to turn reused logit workspaces into confidences.
func SoftmaxInPlace(logits *tensor.Tensor) {
	n := logits.Dim(0)
	k := logits.Len() / n
	od := logits.Data()
	for s := 0; s < n; s++ {
		softmaxRow(od[s*k : (s+1)*k])
	}
}

func softmaxRow(row []float64) {
	m := math.Inf(-1)
	for _, v := range row {
		if v > m {
			m = v
		}
	}
	sum := 0.0
	for i, v := range row {
		e := math.Exp(v - m)
		row[i] = e
		sum += e
	}
	for i := range row {
		row[i] /= sum
	}
}

// OneHot builds a (N, n) one-hot target batch from integer labels.
func OneHot(labels []int, classes int) *tensor.Tensor {
	out := tensor.New(len(labels), classes)
	od := out.Data()
	for s, y := range labels {
		if y < 0 || y >= classes {
			panic(fmt.Sprintf("nn: OneHot label %d out of range [0,%d)", y, classes))
		}
		od[s*classes+y] = 1
	}
	return out
}

// UniformLabels builds a (N, n) target batch where every class has equal
// probability 1/n — the paper's "soft label with equal confidence" for the
// clean model's O-TP constraint.
func UniformLabels(n, classes int) *tensor.Tensor {
	return tensor.Full(1/float64(classes), n, classes)
}
