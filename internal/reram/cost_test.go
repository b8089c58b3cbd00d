package reram

import (
	"sync"
	"testing"

	"reramtest/internal/hwcost"
	"reramtest/internal/nn"
	"reramtest/internal/rng"
	"reramtest/internal/tensor"
)

// TestCounterClassAttribution: the device ledger books one unit, two and
// three to the three classes it is settled to, keeps a fourth pending, and
// Restore drops the pending unit.
func TestCounterClassAttribution(t *testing.T) {
	c := hwcost.NewCounter()
	one := hwcost.Cost{EnergyFJ: 1, CrossbarReads: 1}
	c.Charge(one)
	if got := c.Settle(hwcost.ClassServing); got != one {
		t.Fatalf("Settle returned %+v, want %+v", got, one)
	}
	c.Charge(one.Scale(2))
	c.Settle(hwcost.ClassMonitor)
	c.Charge(one.Scale(3))
	c.Settle(hwcost.ClassRepair)
	c.Charge(one) // pending: not in any class yet
	snap := c.Snapshot()
	if snap.Serving != one || snap.Monitor != one.Scale(2) || snap.Repair != one.Scale(3) {
		t.Fatalf("snapshot %+v", snap)
	}
	if snap.Total() != one.Scale(6) {
		t.Fatalf("total %+v, want %+v", snap.Total(), one.Scale(6))
	}

	c.Restore(hwcost.CostBreakdown{Repair: one})
	if got := c.Snapshot(); got != (hwcost.CostBreakdown{Repair: one}) || !c.Settle(hwcost.ClassServing).IsZero() {
		t.Fatalf("after Restore: %+v", got)
	}
}

// TestNilCounterIsNoOp: an accelerator with its meter detached holds a nil
// counter, and every method on it must be a silent no-op.
func TestNilCounterIsNoOp(t *testing.T) {
	var c *hwcost.Counter
	c.Charge(hwcost.Cost{EnergyFJ: 1})
	c.Restore(hwcost.CostBreakdown{})
	if !c.Settle(hwcost.ClassMonitor).IsZero() {
		t.Fatal("nil counter settled a charge")
	}
	if !c.Snapshot().Total().IsZero() {
		t.Fatal("nil counter snapshot not zero")
	}
}

// TestCounterRaceSurface exercises every concurrent access the contract
// allows under -race: one goroutine driving a metered device (MatVec +
// RefreshReadout, the single-goroutine hot path), an unrelated charger, an
// owner settling the counter, one goroutine snapshotting continuously and
// one merging snapshots into a running breakdown.
func TestCounterRaceSurface(t *testing.T) {
	net := nn.NewNetwork("racer", 8,
		nn.NewDense("d0", rng.New(3), 8, 6),
	)
	accel := NewAccelerator(net, Config{TileRows: 8, TileCols: 8, Device: idealParams()}, 7)
	ctr := accel.Counter()
	x := tensor.RandUniform(rng.New(4), 0, 1, 4, 8)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(5)
	go func() { // the device goroutine
		defer wg.Done()
		for i := 0; i < 200; i++ {
			accel.Infer(x)
			accel.RefreshReadout()
		}
	}()
	go func() { // an unrelated charger (e.g. a digital engine sharing the meter)
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			ctr.Charge(hwcost.Cost{EnergyFJ: 1})
		}
	}()
	go func() { // the owner booking what the device charged
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			ctr.Settle(hwcost.ClassMonitor)
		}
	}()
	go func() { // the telemetry scraper
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				_ = ctr.Snapshot()
			}
		}
	}()
	go func() { // the fleet-level merger
		defer wg.Done()
		var agg hwcost.Cost
		for {
			select {
			case <-done:
				return
			default:
				agg.Add(ctr.Snapshot().Total())
			}
		}
	}()
	// let the scraper/merger overlap the chargers, then stop them
	for i := 0; i < 100; i++ {
		_ = ctr.Snapshot()
	}
	close(done)
	wg.Wait()
}

// TestMeteringIsNumericallyInvisible: attaching a counter must not move a
// single output bit on the analog path or the readout.
func TestMeteringIsNumericallyInvisible(t *testing.T) {
	build := func() *Accelerator {
		cfg := DefaultConfig()
		cfg.TileRows, cfg.TileCols = 16, 16
		cfg.Device.ProgramSigma = 0.03
		net := nn.NewNetwork("inv", 12,
			nn.NewDense("d0", rng.New(5), 12, 10),
			nn.NewReLU("r0"),
			nn.NewDense("d1", rng.New(6), 10, 4),
		)
		return NewAccelerator(net, cfg, 99)
	}
	metered, plain := build(), build()
	plain.SetCounter(nil)

	x := tensor.RandUniform(rng.New(8), 0, 1, 5, 12)
	if !metered.Infer(x).Equal(plain.Infer(x)) {
		t.Fatal("metered analog inference diverged from unmetered")
	}
	mp, pp := metered.RefreshReadout().Params(), plain.RefreshReadout().Params()
	for i := range mp {
		if !mp[i].Value.Equal(pp[i].Value) {
			t.Fatalf("metered readout param %s diverged", mp[i].Name)
		}
	}
	if metered.Counter().Settle(hwcost.ClassServing).IsZero() {
		t.Fatal("metered accelerator charged nothing")
	}
}

// TestChargePointsCover asserts each charge point lands in the expected
// field, in the class its owner settles it to.
func TestChargePointsCover(t *testing.T) {
	cfg := Config{TileRows: 8, TileCols: 8, DACBits: 8, ADCBits: 8, Device: idealParams()}
	cfg.Device.SpareRows = 2
	w := tensor.RandUniform(rng.New(2), -1, 1, 6, 8) // (Out=6, In=8): single tile
	tl := MapLinear(w, cfg, rng.New(3))
	ctr := hwcost.NewCounter()
	tl.SetCounter(ctr)

	x := make([]float64, 8)
	for i := range x {
		x[i] = 0.5
	}
	out := make([]float64, 6)
	tl.MatVecInto(out, x)
	s := ctr.Settle(hwcost.ClassServing)
	if s.DACConversions != 8 || s.ADCConversions != 2*8 || s.ComputeCycles != 1 {
		t.Fatalf("matvec conversions: %+v", s)
	}
	if s.CrossbarReads != 2*8*8 { // all 8 word-lines driven, both polarities
		t.Fatalf("matvec reads: %+v", s)
	}
	if s.BufferBytes != (8+6)*8 || s.EnergyFJ == 0 {
		t.Fatalf("matvec buffer/energy: %+v", s)
	}

	// an all-zero input drives nothing and charges nothing
	tl.MatVecInto(out, make([]float64, 8))
	if idle := ctr.Settle(hwcost.ClassServing); !idle.IsZero() {
		t.Fatalf("idle pass charged %+v", idle)
	}

	buf := tensor.New(6, 8)
	tl.EffectiveWeightsInto(buf)
	m := ctr.Settle(hwcost.ClassMonitor)
	if m.CrossbarReads != 2*8*6 || m.BufferBytes != 8*6*8 {
		t.Fatalf("readout charge: %+v", m)
	}

	tl.Reprogram()
	rep := ctr.Settle(hwcost.ClassRepair)
	if rep.CrossbarWrites != 2*8*8 { // both full arrays rewritten
		t.Fatalf("reprogram writes: %+v", rep)
	}
	tl.InjectStuckAt(0.5, 0.3)
	if remap := ctr.Settle(hwcost.ClassRepair); !remap.IsZero() {
		t.Fatalf("fault injection charged %+v", remap)
	}
	tl.RemapStuck(1, 0.05)
	if remap := ctr.Settle(hwcost.ClassRepair); remap.CrossbarWrites == 0 {
		t.Fatal("remap pass charged no writes")
	}
	if got := ctr.Snapshot(); got.Serving != s || got.Monitor != m || got.Repair.CrossbarWrites <= rep.CrossbarWrites {
		t.Fatalf("ledger %+v", got)
	}
}

func TestChargeIsAllocationFree(t *testing.T) {
	ctr := hwcost.NewCounter()
	c := hwcost.Cost{ComputeCycles: 3, DACConversions: 4, ADCConversions: 5,
		CrossbarReads: 6, CrossbarWrites: 7, EnergyFJ: 8, BufferBytes: 9}
	if allocs := testing.AllocsPerRun(100, func() {
		ctr.Charge(c)
		_ = ctr.Snapshot()
	}); allocs != 0 {
		t.Fatalf("Charge+Snapshot allocates %.0f/op, want 0", allocs)
	}
}
