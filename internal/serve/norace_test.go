//go:build !race

package serve_test

const raceBuild = false
