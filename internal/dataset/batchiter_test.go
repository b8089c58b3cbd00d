package dataset

import (
	"testing"

	"reramtest/internal/rng"
)

// wantBatches is the reference split: the identity order, shuffled by r
// when r is non-nil, cut into batches of size copied out with Subset.
func wantBatches(d *Dataset, size int, r *rng.RNG) []*Dataset {
	order := make([]int, d.N())
	for i := range order {
		order[i] = i
	}
	if r != nil {
		r.Shuffle(order)
	}
	var out []*Dataset
	for s := 0; s < len(order); s += size {
		out = append(out, d.Subset(order[s:min(s+size, len(order))]))
	}
	return out
}

// TestBatchIteratorMatchesBatches: over several epochs, the reusable iterator
// must visit exactly the reference batches — same shuffle stream, same sample
// order, same data bits, same tail batch.
func TestBatchIteratorMatchesBatches(t *testing.T) {
	d := SynthDigits(7, DefaultDigitsConfig(50)) // 50 % 16 != 0 exercises the tail
	r1, r2 := rng.New(9), rng.New(9)
	it := d.BatchIterator(16)
	for epoch := 0; epoch < 3; epoch++ {
		want := wantBatches(d, 16, r1)
		it.Reset(r2)
		for i, wb := range want {
			x, y, ok := it.Next()
			if !ok {
				t.Fatalf("epoch %d: iterator exhausted at batch %d, want %d batches", epoch, i, len(want))
			}
			if !x.Equal(wb.X) {
				t.Fatalf("epoch %d batch %d: iterator data diverges from the reference", epoch, i)
			}
			if len(y) != len(wb.Y) {
				t.Fatalf("epoch %d batch %d: %d labels, want %d", epoch, i, len(y), len(wb.Y))
			}
			for j := range y {
				if y[j] != wb.Y[j] {
					t.Fatalf("epoch %d batch %d: label[%d] = %d, want %d", epoch, i, j, y[j], wb.Y[j])
				}
			}
		}
		if _, _, ok := it.Next(); ok {
			t.Fatalf("epoch %d: iterator produced more batches than the reference", epoch)
		}
	}
}

// TestBatchIteratorNilRNGKeepsOrder: Reset(nil) must visit dataset order.
func TestBatchIteratorNilRNGKeepsOrder(t *testing.T) {
	d := SynthDigits(8, DefaultDigitsConfig(20))
	want := wantBatches(d, 8, nil)
	it := d.BatchIterator(8)
	it.Reset(nil)
	for i, wb := range want {
		x, _, ok := it.Next()
		if !ok || !x.Equal(wb.X) {
			t.Fatalf("batch %d diverges from dataset order", i)
		}
	}
}

// TestBatchIteratorAllocFree: after construction, an entire epoch — reshuffle
// included — performs zero heap allocations.
func TestBatchIteratorAllocFree(t *testing.T) {
	d := SynthDigits(9, DefaultDigitsConfig(64))
	it := d.BatchIterator(16)
	r := rng.New(3)
	epoch := func() {
		it.Reset(r)
		for {
			if _, _, ok := it.Next(); !ok {
				return
			}
		}
	}
	epoch() // warm the cached tail view
	if a := testing.AllocsPerRun(5, epoch); a != 0 {
		t.Errorf("BatchIter epoch allocates %.1f objects, want 0", a)
	}
}
