//go:build !amd64

package tensor

// blockedTiles: off amd64 MatMulBlockedSlices is one kernel.
var blockedTiles = []blockedTile{{"generic", true, MatMulBlockedSlices}}
