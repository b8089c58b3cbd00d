package campaign

import (
	"fmt"
	"sync"
	"time"

	"reramtest/internal/engine"
	"reramtest/internal/fleet"
	"reramtest/internal/health"
	"reramtest/internal/hwcost"
	"reramtest/internal/models"
	"reramtest/internal/monitor"
	"reramtest/internal/nn"
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

// chaosInjector perturbs device readouts from one seeded stream, shared by
// every device (attempt goroutines draw concurrently, so it locks).
type chaosInjector struct {
	mu        sync.Mutex
	r         *rng.RNG
	enabled   bool
	slowP     float64
	slowDelay time.Duration
	crashP    float64
	slows     int
	crashes   int
}

func (c *chaosInjector) disturb() {
	c.mu.Lock()
	if !c.enabled {
		c.mu.Unlock()
		return
	}
	slow := c.r.Bernoulli(c.slowP)
	crash := c.r.Bernoulli(c.crashP)
	if slow {
		c.slows++
	}
	if crash {
		c.crashes++
	}
	delay := c.slowDelay
	c.mu.Unlock()
	if slow {
		time.Sleep(delay)
	}
	if crash {
		panic("campaign: injected mid-request crash")
	}
}

// soakDevice is an engine-backed accelerator with a chaos tap on its readout
// path. The engine is single-goroutine, which is fine: the fleet Station
// wrapping this device serialises all access.
type soakDevice struct {
	id    string
	net   *nn.Network
	pats  *testgen.PatternSet
	eng   *engine.Engine
	chaos *chaosInjector
}

func (d *soakDevice) ID() string                    { return d.id }
func (d *soakDevice) Reference() *nn.Network        { return d.net }
func (d *soakDevice) Patterns() *testgen.PatternSet { return d.pats }
func (d *soakDevice) Repairer() health.Repairer     { return nil }

// CostCounter implements fleet.CostMetered via the compiled engine's meter.
func (d *soakDevice) CostCounter() *hwcost.Counter { return d.eng.Counter() }
func (d *soakDevice) Infer() monitor.Infer {
	return func(x *tensor.Tensor) *tensor.Tensor {
		if d.chaos != nil {
			d.chaos.disturb()
		}
		return d.eng.Probs(x)
	}
}
