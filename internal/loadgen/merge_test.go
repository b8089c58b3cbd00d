package loadgen

import (
	"reflect"
	"testing"
	"time"

	"reramtest/internal/hwcost"
)

// fakeReport builds a deterministic report from a small integer seed so the
// associativity test exercises every merged field with distinct values.
func fakeReport(n uint64) Report {
	i := int(n)
	return Report{
		Sent: 10 * i, OK: 7 * i, Degraded: i, Hung: i % 2, Transport: i % 3,
		Untyped: 0, Storms: i,
		ByKind:   map[string]int{"ok": 7 * i, "deadline": 2 * i, "hung": i % 2},
		ByTenant: map[string]int{"a": 6 * i, "b": 4 * i},
		Cost: hwcost.Cost{ComputeCycles: 100 * n, DACConversions: 10 * n,
			ADCConversions: 20 * n, CrossbarReads: 30 * n, EnergyFJ: 1000 * n,
			BufferBytes: 64 * n},
		CostByTenant: map[string]hwcost.Cost{
			"a": {ComputeCycles: 60 * n, EnergyFJ: 600 * n},
			"b": {ComputeCycles: 40 * n, EnergyFJ: 400 * n},
		},
		Latencies: []time.Duration{time.Duration(i) * time.Millisecond},
		Elapsed:   time.Duration(i) * time.Second,
	}
}

// stripOrder clears the fields Merge does not promise an order or a derived
// value for, so DeepEqual compares only the associative content.
func stripOrder(r Report) Report {
	total := time.Duration(0)
	for _, l := range r.Latencies {
		total += l
	}
	r.Latencies = []time.Duration{total} // order-insensitive digest
	r.Throughput = 0                     // derived; recomputed per merge step
	return r
}

// TestMergeAssociative checks (a⊕b)⊕c == a⊕(b⊕c) field by field, including
// the per-tenant cost ledgers — the property campaign soaks rely on when
// folding per-phase reports in arbitrary groupings.
func TestMergeAssociative(t *testing.T) {
	a, b, c := fakeReport(1), fakeReport(2), fakeReport(3)

	left := fakeReport(1)
	left.Merge(b)
	left.Merge(c)

	bc := fakeReport(2)
	bc.Merge(c)
	right := fakeReport(1)
	right.Merge(bc)

	if !reflect.DeepEqual(stripOrder(left), stripOrder(right)) {
		t.Fatalf("merge not associative:\nleft  %+v\nright %+v", left, right)
	}

	// sanity: totals actually add across the three inputs
	wantSent := a.Sent + b.Sent + c.Sent
	if left.Sent != wantSent {
		t.Fatalf("merged Sent = %d, want %d", left.Sent, wantSent)
	}
	wantCost := a.Cost
	wantCost.Add(b.Cost)
	wantCost.Add(c.Cost)
	if left.Cost != wantCost {
		t.Fatalf("merged Cost = %+v, want %+v", left.Cost, wantCost)
	}
	wantA := a.CostByTenant["a"]
	wantA.Add(b.CostByTenant["a"])
	wantA.Add(c.CostByTenant["a"])
	if left.CostByTenant["a"] != wantA {
		t.Fatalf("merged tenant-a cost = %+v, want %+v", left.CostByTenant["a"], wantA)
	}
}

// TestMergeIntoZero checks merging into a zero-value report works (nil maps
// are materialised) — the shape campaign code uses for its running total.
func TestMergeIntoZero(t *testing.T) {
	var total Report
	total.Merge(fakeReport(2))
	if total.Sent != 20 || total.ByTenant["a"] != 12 {
		t.Fatalf("merge into zero value lost counters: %+v", total)
	}
	if total.CostByTenant["b"].EnergyFJ != 800 {
		t.Fatalf("merge into zero value lost tenant cost: %+v", total.CostByTenant)
	}
}
