package hwcost

import (
	"math"
	"math/rand"
	"testing"
)

// randCost draws a cost with every field populated and small enough that no
// test sum overflows.
func randCost(r *rand.Rand) Cost {
	f := func() uint64 { return uint64(r.Intn(1 << 20)) }
	return Cost{ComputeCycles: f(), DACConversions: f(), ADCConversions: f(),
		CrossbarReads: f(), CrossbarWrites: f(), EnergyFJ: f(), BufferBytes: f()}
}

var classes = []Class{ClassServing, ClassMonitor, ClassRepair}

func TestPlusMinusRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		a, b := randCost(r), randCost(r)
		if got := a.Plus(b).Minus(b); got != a {
			t.Fatalf("(%+v + %+v) − b = %+v", a, b, got)
		}
		if a.Plus(b) != b.Plus(a) {
			t.Fatalf("Plus not commutative on %+v, %+v", a, b)
		}
	}
	if !(Cost{}).IsZero() || (Cost{EnergyFJ: 1}).IsZero() {
		t.Fatal("IsZero")
	}
}

// TestCostArithmetic: Plus agrees with Scale, a breakdown totals its
// classes, and every class reads back its own spend.
func TestCostArithmetic(t *testing.T) {
	a := Cost{ComputeCycles: 1, DACConversions: 2, ADCConversions: 3,
		CrossbarReads: 4, CrossbarWrites: 5, EnergyFJ: 6, BufferBytes: 7}
	if b := a.Plus(a); b != a.Scale(2) {
		t.Fatalf("Plus/Scale disagree: %+v vs %+v", b, a.Scale(2))
	}
	bd := CostBreakdown{Serving: a, Monitor: a, Repair: a}
	if bd.Total() != a.Scale(3) {
		t.Fatalf("breakdown Total = %+v, want %+v", bd.Total(), a.Scale(3))
	}
	for _, cl := range classes {
		if bd.ByClass(cl) != a {
			t.Fatalf("ByClass(%v) = %+v, want %+v", cl, bd.ByClass(cl), a)
		}
	}
}

// TestChargeClassAttribution: a charge shows up in exactly the class it is
// settled to, and never before it is settled.
func TestChargeClassAttribution(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	k := NewCounter()
	var want CostBreakdown
	for i := 0; i < 30; i++ {
		cl := classes[i%len(classes)]
		c := randCost(r)
		before := k.Snapshot()
		k.Charge(c)
		if k.Snapshot() != before {
			t.Fatalf("unsettled charge %+v moved the snapshot", c)
		}
		k.Settle(cl)
		switch cl {
		case ClassServing:
			want.Serving.Add(c)
		case ClassMonitor:
			want.Monitor.Add(c)
		case ClassRepair:
			want.Repair.Add(c)
		}
		after := k.Snapshot()
		if after.ByClass(cl).Minus(before.ByClass(cl)) != c || after.Total().Minus(before.Total()) != c {
			t.Fatalf("charge settled to class %d moved the snapshot from %+v to %+v", cl, before, after)
		}
	}
	if got := k.Snapshot(); got != want {
		t.Fatalf("snapshot %+v, want %+v", got, want)
	}

}

// TestSettle: Settle returns exactly what was charged since the last one, an
// empty settle returns zero, a nil counter settles to zero, and none of it
// allocates.
func TestSettle(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	k := NewCounter()
	a, b := randCost(r), randCost(r)
	k.Charge(a)
	k.Charge(b)
	if got := k.Settle(ClassRepair); got != a.Plus(b) {
		t.Fatalf("Settle returned %+v, want %+v", got, a.Plus(b))
	}
	if got := k.Settle(ClassMonitor); !got.IsZero() {
		t.Fatalf("empty Settle returned %+v", got)
	}
	if got := k.Snapshot(); got != (CostBreakdown{Repair: a.Plus(b)}) {
		t.Fatalf("snapshot after settles %+v", got)
	}
	var nilCtr *Counter
	nilCtr.Charge(a)
	if got := nilCtr.Settle(ClassServing); !got.IsZero() {
		t.Fatalf("nil counter settled %+v", got)
	}
	if n := testing.AllocsPerRun(1000, func() {
		k.Charge(a)
		k.Settle(ClassServing)
	}); n != 0 {
		t.Fatalf("Charge + Settle allocate %v times per run", n)
	}
}

func TestNilCounterIsANoOpSink(t *testing.T) {
	var k *Counter
	k.Charge(Cost{EnergyFJ: 1})
	k.Restore(CostBreakdown{Repair: Cost{EnergyFJ: 1}})
	if !k.Settle(ClassMonitor).IsZero() {
		t.Fatal("nil counter settled a charge")
	}
	if got := k.Snapshot(); got != (CostBreakdown{}) {
		t.Fatalf("nil counter snapshot %+v", got)
	}
}

// TestCostArithmeticSaturates: the rollups stop at MaxUint64 instead of
// wrapping, field by field, and are exact right up to the boundary.
func TestCostArithmeticSaturates(t *testing.T) {
	const max = math.MaxUint64
	full := Cost{ComputeCycles: max, DACConversions: max, ADCConversions: max,
		CrossbarReads: max, CrossbarWrites: max, EnergyFJ: max, BufferBytes: max}
	one := Cost{ComputeCycles: 1, DACConversions: 1, ADCConversions: 1,
		CrossbarReads: 1, CrossbarWrites: 1, EnergyFJ: 1, BufferBytes: 1}
	edge := full.Minus(one)
	if got := edge.Plus(one); got != full {
		t.Fatalf("max−1 + 1 = %+v, want every field at max", got)
	}
	if got := full.Plus(one); got != full {
		t.Fatalf("max + 1 = %+v, want saturation", got)
	}
	if got := (Cost{EnergyFJ: max}).Plus(Cost{EnergyFJ: max, BufferBytes: 3}); got != (Cost{EnergyFJ: max, BufferBytes: 3}) {
		t.Fatalf("saturation leaked across fields: %+v", got)
	}
	half := Cost{EnergyFJ: 1 << 63, ComputeCycles: 1<<63 - 1}
	if got := half.Scale(2); got != (Cost{EnergyFJ: max, ComputeCycles: max - 1}) {
		t.Fatalf("Scale at the boundary = %+v", got)
	}
	if got := one.Scale(max); got != full {
		t.Fatalf("1 × max = %+v", got)
	}
	if b := (CostBreakdown{Serving: full, Monitor: one}); b.Total() != full {
		t.Fatalf("breakdown rollup %+v, total %+v", b, b.Total())
	}
}

func TestRestoreSnapshotIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	k := NewCounter()
	for _, cl := range classes {
		k.Charge(randCost(r))
		k.Settle(cl)
	}
	snap := k.Snapshot()
	k.Restore(snap)
	if k.Snapshot() != snap {
		t.Fatal("Restore(Snapshot()) changed the counter")
	}
	fresh := NewCounter()
	fresh.Charge(randCost(r)) // overwritten, not merged
	fresh.Settle(ClassMonitor)
	fresh.Charge(randCost(r)) // pending: dropped
	fresh.Restore(snap)
	if fresh.Snapshot() != snap || !fresh.Settle(ClassServing).IsZero() {
		t.Fatalf("restored counter reads %+v, want %+v", fresh.Snapshot(), snap)
	}
}

func TestChargeAndSnapshotDoNotAllocate(t *testing.T) {
	k := NewCounter()
	c := randCost(rand.New(rand.NewSource(5)))
	var sink CostBreakdown
	if n := testing.AllocsPerRun(1000, func() {
		k.Charge(c)
		k.Settle(ClassMonitor)
		sink = k.Snapshot()
	}); n != 0 {
		t.Fatalf("Charge + Settle + Snapshot allocate %v times per run", n)
	}
	if sink.Monitor.IsZero() {
		t.Fatal("charges lost")
	}
}

// TestMatVecCostModel: a 130 × 200 layer on 128 × 128 tiles spans two row
// tiles by two column tiles; the dense model adds every cell read of both
// polarities and costs more energy.
func TestMatVecCostModel(t *testing.T) {
	c := MatVecCost(130, 200, 128, 128, false)
	if c.ComputeCycles != 4 || c.DACConversions != 200 || c.ADCConversions != 2*4*128 {
		t.Fatalf("model: %+v", c)
	}
	if c.CrossbarReads != 0 {
		t.Fatal("sparse model charged reads")
	}
	d := MatVecCost(130, 200, 128, 128, true)
	if d.CrossbarReads != 2*130*200 {
		t.Fatalf("dense model reads: %+v", d)
	}
	if d.EnergyFJ <= c.EnergyFJ {
		t.Fatal("dense model not costlier")
	}
}
