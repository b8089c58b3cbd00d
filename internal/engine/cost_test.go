package engine

import (
	"testing"

	"reramtest/internal/hwcost"
	"reramtest/internal/models"
	"reramtest/internal/nn"
	"reramtest/internal/rng"
	"reramtest/internal/tensor"
)

// TestEngineChargesPerSample: a compiled plan charges exactly
// PlanCost × batch size per forward pass, booked to whichever class the
// counter's owner settles it to.
func TestEngineChargesPerSample(t *testing.T) {
	net := models.MLP(rng.New(41), 16, []int{24, 16}, 6)
	ctr := hwcost.NewCounter()
	eng := MustCompile(net, Options{Counter: ctr})
	if eng.Counter() != ctr {
		t.Fatal("engine ignored the supplied counter")
	}
	per := eng.PlanCost()
	if per.IsZero() || per.DACConversions == 0 || per.CrossbarReads == 0 {
		t.Fatalf("implausible plan cost %+v", per)
	}

	x := tensor.RandUniform(rng.New(42), 0, 1, 5, 16)
	eng.ForwardBatch(nil, x)
	if got := ctr.Settle(hwcost.ClassServing); got != per.Scale(5) {
		t.Fatalf("5-sample batch charged %+v, want %+v", got, per.Scale(5))
	}

	eng.Probs(tensor.FromSlice(x.Data()[:2*16], 2, 16))
	ctr.Settle(hwcost.ClassMonitor)
	snap := ctr.Snapshot()
	if snap.Monitor != per.Scale(2) {
		t.Fatalf("monitor-class batch charged %+v, want %+v", snap.Monitor, per.Scale(2))
	}
	if snap.Serving != per.Scale(5) {
		t.Fatal("monitor-class batch leaked into serving")
	}
}

// TestRebindPreservesCost is the Rebind accounting regression: re-binding a
// plan to refreshed parameters (the fault-model sweep's per-round readout
// swap) must neither reset the cumulative counter nor re-charge work already
// accounted — spend accrued before the swap survives, and the per-sample rate
// after the swap is unchanged.
func TestRebindPreservesCost(t *testing.T) {
	net := models.MLP(rng.New(51), 16, []int{24, 16}, 6)
	eng := MustCompile(net, Options{})
	ctr := eng.Counter() // default: engine made its own
	per := eng.PlanCost()
	x := tensor.RandUniform(rng.New(52), 0, 1, 3, 16)

	eng.ForwardBatch(nil, x)
	ctr.Settle(hwcost.ClassServing)
	before := ctr.Snapshot()
	if before.Total() != per.Scale(3) {
		t.Fatalf("pre-rebind charge %+v, want %+v", before.Total(), per.Scale(3))
	}

	clone := net.Clone()
	for _, p := range clone.Params() {
		p.Value.ScaleInPlace(0.5)
	}
	if err := eng.Rebind(clone); err != nil {
		t.Fatalf("rebind: %v", err)
	}
	if eng.Counter() != ctr {
		t.Fatal("rebind swapped the counter")
	}
	if got := ctr.Snapshot(); got != before || !ctr.Settle(hwcost.ClassServing).IsZero() {
		t.Fatalf("rebind itself charged or reset: %+v vs %+v", got, before)
	}
	if eng.PlanCost() != per {
		t.Fatal("rebind changed the per-sample plan cost of an identical architecture")
	}

	// a failed rebind must also leave the meter untouched
	if err := eng.Rebind(models.MLP(rng.New(53), 16, []int{25, 16}, 6)); err == nil {
		t.Fatal("rebind accepted a mismatched architecture")
	}
	if got := ctr.Snapshot(); got != before || !ctr.Settle(hwcost.ClassServing).IsZero() {
		t.Fatal("rejected rebind perturbed the meter")
	}

	eng.ForwardBatch(nil, x)
	ctr.Settle(hwcost.ClassServing)
	if got := ctr.Snapshot().Total(); got != per.Scale(6) {
		t.Fatalf("post-rebind cumulative %+v, want %+v (no reset, no double-count)", got, per.Scale(6))
	}
}

// TestPlanCostPinned pins the per-sample sticker of the stock MLP and the
// paper's two models on every tier, priced at the reference tile
// (hwcost.DefaultTileRows × hwcost.DefaultTileCols). The sticker depends only
// on the architecture and the tier, so the seed does not matter.
func TestPlanCostPinned(t *testing.T) {
	type pin struct {
		name string
		net  *nn.Network
		want map[tensor.Precision]hwcost.Cost
	}
	pins := []pin{
		{"mlp", models.MLP(rng.New(1), 16, []int{24, 16}, 6), map[tensor.Precision]hwcost.Cost{
			tensor.F64: {ComputeCycles: 3, DACConversions: 56, ADCConversions: 768, CrossbarReads: 1728, EnergyFJ: 14240, BufferBytes: 1456},
			tensor.F32: {ComputeCycles: 3, DACConversions: 56, ADCConversions: 768, CrossbarReads: 1728, EnergyFJ: 14240, BufferBytes: 728},
			tensor.I8:  {ComputeCycles: 3, DACConversions: 56, ADCConversions: 768, CrossbarReads: 1728, EnergyFJ: 4856, BufferBytes: 182},
		}},
		{"lenet5", models.LeNet5(rng.New(1)), map[tensor.Precision]hwcost.Cost{
			tensor.F64: {ComputeCycles: 990, DACConversions: 35204, ADCConversions: 253440, CrossbarReads: 833040, EnergyFJ: 5028896, BufferBytes: 500944},
			tensor.F32: {ComputeCycles: 990, DACConversions: 35204, ADCConversions: 253440, CrossbarReads: 833040, EnergyFJ: 5028896, BufferBytes: 250472},
			tensor.I8:  {ComputeCycles: 990, DACConversions: 35204, ADCConversions: 253440, CrossbarReads: 833040, EnergyFJ: 1882004, BufferBytes: 62618},
		}},
		{"convnet7", models.ConvNet7(rng.New(1)), map[tensor.Precision]hwcost.Cost{
			tensor.F64: {ComputeCycles: 1606, DACConversions: 88256, ADCConversions: 411136, CrossbarReads: 4203776, EnergyFJ: 11134976, BufferBytes: 1456208},
			tensor.F32: {ComputeCycles: 1606, DACConversions: 88256, ADCConversions: 411136, CrossbarReads: 4203776, EnergyFJ: 11134976, BufferBytes: 728104},
			tensor.I8:  {ComputeCycles: 1606, DACConversions: 88256, ADCConversions: 411136, CrossbarReads: 4203776, EnergyFJ: 5936576, BufferBytes: 182026},
		}},
	}
	for _, p := range pins {
		for _, prec := range []tensor.Precision{tensor.F64, tensor.F32, tensor.I8} {
			if got := MustCompile(p.net, Options{Precision: prec}).PlanCost(); got != p.want[prec] {
				t.Errorf("%s %v: PlanCost %+v, want %+v", p.name, prec, got, p.want[prec])
			}
		}
	}
}
