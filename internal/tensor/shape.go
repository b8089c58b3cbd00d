package tensor

import (
	"fmt"
	"strings"
)

// Wildcard matches any size in an AssertDims dimension list.
const Wildcard = -1

// AssertDims panics unless t has exactly the given dimensions. A Wildcard (-1)
// entry matches any size on that axis, so kernels can pin the axes they care
// about while leaving batch sizes free:
//
//	tensor.AssertDims("Dense.ForwardBatchRange dst", dst, n, out)
//	tensor.AssertDims("ForwardBatch x", x, tensor.Wildcard, inDim)
//
// The panic message names the operation, the expected shape and the shape
// actually seen, so shape bugs surface at the kernel boundary instead of as
// an index-out-of-range deep inside a loop.
func AssertDims(op string, t *Tensor, dims ...int) {
	if t == nil {
		panic(fmt.Sprintf("tensor: %s got a nil tensor, want shape %s", op, dimString(dims)))
	}
	if len(t.shape) != len(dims) {
		panic(fmt.Sprintf("tensor: %s wants shape %s, got %v", op, dimString(dims), t.shape))
	}
	for i, d := range dims {
		if d != Wildcard && t.shape[i] != d {
			panic(fmt.Sprintf("tensor: %s wants shape %s, got %v", op, dimString(dims), t.shape))
		}
	}
}

// dimString renders an expected-dimension list with wildcards as "*".
func dimString(dims []int) string {
	parts := make([]string, len(dims))
	for i, d := range dims {
		if d == Wildcard {
			parts[i] = "*"
		} else {
			parts[i] = fmt.Sprint(d)
		}
	}
	return "[" + strings.Join(parts, " ") + "]"
}
