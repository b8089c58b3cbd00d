package campaign

import (
	"fmt"

	"reramtest/internal/engine"
	"reramtest/internal/fleet"
	"reramtest/internal/models"
	"reramtest/internal/rng"
	"reramtest/internal/tensor"
	"reramtest/internal/testgen"
)

// Stock dimensions for the engine-backed accelerator set: a small MLP every
// soak and demo shares, so wire-level clients agree on the input width.
const (
	StockInDim  = 16
	StockOutDim = 6
)

// EngineDevices builds n engine-backed accelerator devices, each a clone of
// one seeded reference model with a shared test-pattern set — the stock
// device complement cmd/served, the examples and the network soak mount
// behind a fleet. IDs are prefix-00, prefix-01, … Pass a non-nil chaos tap
// via engineDevices to perturb readouts; this exported form runs clean.
func EngineDevices(seed int64, n int, prefix string) []fleet.Device {
	return engineDevices(rng.New(seed), n, prefix, nil)
}

func engineDevices(r *rng.RNG, n int, prefix string, chaos *chaosInjector) []fleet.Device {
	pats := &testgen.PatternSet{
		Name: prefix + "-patterns", Method: "plain",
		X:      tensor.RandUniform(r.Split(), 0, 1, 8, StockInDim),
		Labels: make([]int, 8),
	}
	ref := models.MLP(rng.New(1), StockInDim, []int{24, 16}, StockOutDim)
	devices := make([]fleet.Device, n)
	for i := range devices {
		net := ref.Clone()
		devices[i] = &soakDevice{
			id: fmt.Sprintf("%s-%02d", prefix, i), net: net, pats: pats,
			eng:   engine.MustCompile(net, engine.Options{Workers: 1}),
			chaos: chaos,
		}
	}
	return devices
}
