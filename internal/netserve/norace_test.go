//go:build !race

package netserve

const raceBuild = false
