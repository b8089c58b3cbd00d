//go:build !amd64

package tensor

// hostTile: off amd64 the blocked kernels run the Go fold.
var hostTile = tileGeneric

// tileRows4 is never reached off amd64, where every product takes the Go
// fold.
func tileRows4(tile, []float64, []float64, []float64, []float64, []int, int, int, int, int) bool {
	panic("tensor: no register tiles off amd64")
}

// reluMaxPool2x2: off amd64 the 2×2 pool is its Go twin.
func reluMaxPool2x2(out, panel []float64, planes, inH, inW int) {
	ReLUMaxPool2x2Generic(out, panel, planes, inH, inW)
}
