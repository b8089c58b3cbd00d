package hwcost

import (
	"math/rand"
	"sync"
	"testing"
)

// randCost draws a cost with every field populated and small enough that no
// test sum overflows.
func randCost(r *rand.Rand) Cost {
	f := func() uint64 { return uint64(r.Intn(1 << 20)) }
	return Cost{ComputeCycles: f(), DACConversions: f(), ADCConversions: f(),
		CrossbarReads: f(), CrossbarWrites: f(), EnergyFJ: f(), BufferBytes: f()}
}

func randBreakdown(r *rand.Rand) CostBreakdown {
	return CostBreakdown{Serving: randCost(r), Monitor: randCost(r), Repair: randCost(r)}
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
		x, y := randBreakdown(r), randBreakdown(r)
		if got := x.Plus(y).Minus(y); got != x {
			t.Fatalf("breakdown round trip: %+v", got)
		}
		if x.Plus(y).Total() != x.Total().Plus(y.Total()) {
			t.Fatal("Total does not distribute over Plus")
		}
	}
	if !(Cost{}).IsZero() || (Cost{EnergyFJ: 1}).IsZero() {
		t.Fatal("IsZero")
	}
}

// TestChargeClassAttribution: a charge to one class shows up in exactly that
// class of the snapshot, whatever the counter's current class is; Charge
// follows SetClass.
func TestChargeClassAttribution(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, current := range classes {
		k := NewCounter()
		k.SetClass(current)
		var want CostBreakdown
		for _, cl := range classes {
			c := randCost(r)
			k.ChargeClass(cl, c)
			switch cl {
			case ClassServing:
				want.Serving.Add(c)
			case ClassMonitor:
				want.Monitor.Add(c)
			case ClassRepair:
				want.Repair.Add(c)
			}
			if got := k.Snapshot().ByClass(cl); got != c {
				t.Fatalf("current=%s: %s charge read back %+v, want %+v", current, cl, got, c)
			}
		}
		if got := k.Snapshot(); got != want {
			t.Fatalf("current=%s: snapshot %+v, want %+v", current, got, want)
		}
		c := randCost(r)
		before := k.Snapshot()
		k.Charge(c)
		delta := k.Snapshot().Minus(before)
		if delta.ByClass(current) != c || delta.Total() != c {
			t.Fatalf("Charge under class %s landed as %+v", current, delta)
		}
	}
	if prev := NewCounter().SetClass(ClassRepair); prev != ClassServing {
		t.Fatalf("fresh counter class %s, want serving", prev)
	}
}

func TestNilCounterIsANoOpSink(t *testing.T) {
	var k *Counter
	k.Charge(Cost{EnergyFJ: 1})
	k.ChargeClass(ClassRepair, Cost{EnergyFJ: 1})
	k.Restore(CostBreakdown{Repair: Cost{EnergyFJ: 1}})
	if k.SetClass(ClassMonitor) != ClassServing || k.Class() != ClassServing {
		t.Fatal("nil counter class")
	}
	if got := k.Snapshot(); got != (CostBreakdown{}) {
		t.Fatalf("nil counter snapshot %+v", got)
	}
}

// TestMeterFoldIsInterleavingInvariant: the fold equals the sum of the shard
// snapshots and the serial sum of every charge, however the workers were
// scheduled.
func TestMeterFoldIsInterleavingInvariant(t *testing.T) {
	const shards, perShard = 4, 500
	r := rand.New(rand.NewSource(3))
	type charge struct {
		cl Class
		c  Cost
	}
	plan := make([][]charge, shards)
	var want CostBreakdown
	for i := range plan {
		for j := 0; j < perShard; j++ {
			ch := charge{classes[r.Intn(len(classes))], randCost(r)}
			plan[i] = append(plan[i], ch)
			ref := NewCounter()
			ref.ChargeClass(ch.cl, ch.c)
			want.Add(ref.Snapshot())
		}
	}
	for trial := 0; trial < 3; trial++ {
		m := NewMeter(shards)
		var wg sync.WaitGroup
		for i := range plan {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for _, ch := range plan[i] {
					m.Shard(i).ChargeClass(ch.cl, ch.c)
				}
			}(i)
		}
		wg.Wait()
		var sum CostBreakdown
		for i := 0; i < m.Shards(); i++ {
			sum.Add(m.Shard(i).Snapshot())
		}
		if got := m.Fold(); got != sum || got != want {
			t.Fatalf("trial %d: fold %+v, shard sum %+v, serial %+v", trial, got, sum, want)
		}
	}
	if NewMeter(0).Shards() != 1 {
		t.Fatal("NewMeter(0) must clamp to one shard")
	}
}

func TestRestoreSnapshotIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	k := NewCounter()
	for _, cl := range classes {
		k.ChargeClass(cl, randCost(r))
	}
	snap := k.Snapshot()
	k.Restore(snap)
	if k.Snapshot() != snap {
		t.Fatal("Restore(Snapshot()) changed the counter")
	}
	fresh := NewCounter()
	fresh.ChargeClass(ClassMonitor, randCost(r)) // overwritten, not merged
	fresh.Restore(snap)
	if fresh.Snapshot() != snap {
		t.Fatalf("restored counter reads %+v, want %+v", fresh.Snapshot(), snap)
	}
}

func TestChargeAndSnapshotDoNotAllocate(t *testing.T) {
	k := NewCounter()
	c := randCost(rand.New(rand.NewSource(5)))
	var sink CostBreakdown
	if n := testing.AllocsPerRun(1000, func() {
		k.ChargeClass(ClassMonitor, c)
		sink = k.Snapshot()
	}); n != 0 {
		t.Fatalf("ChargeClass + Snapshot allocate %v times per run", n)
	}
	if sink.Monitor.IsZero() {
		t.Fatal("charges lost")
	}
}
