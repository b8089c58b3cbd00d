//go:build !race

package loadgen

const raceBuild = false
