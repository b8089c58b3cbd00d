//go:build race

package loadgen

// raceBuild: the race detector's sync.Pool drops a share of what is put
// back, so the allocation ceilings only hold without it.
const raceBuild = true
