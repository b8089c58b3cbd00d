package tensor

import (
	"sync"
	"testing"

	"reramtest/internal/rng"
)

// TestPoolRunCoversRange checks every index is visited exactly once for a
// spread of (n, chunks, workers) combinations, including inline pools.
func TestPoolRunCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		p := NewPool(workers)
		for _, n := range []int{1, 2, 3, 7, 16, 64, 65} {
			for _, chunks := range []int{1, 2, 3, 8} {
				var mu sync.Mutex
				var wg sync.WaitGroup
				seen := make([]int, n)
				p.RunWith(&wg, n, chunks, func(_, lo, hi int) {
					mu.Lock()
					for i := lo; i < hi; i++ {
						seen[i]++
					}
					mu.Unlock()
				})
				for i, c := range seen {
					if c != 1 {
						t.Fatalf("workers=%d n=%d chunks=%d: index %d visited %d times", workers, n, chunks, i, c)
					}
				}
			}
		}
		p.Close()
	}
}

// TestPoolRunZero checks the degenerate empty range is a no-op.
func TestPoolRunZero(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var wg sync.WaitGroup
	called := false
	p.RunWith(&wg, 0, 4, func(_, _, _ int) { called = true })
	if called {
		t.Fatal("body invoked for empty range")
	}
}

// TestPoolSharedAcrossGoroutines drives one pool from several goroutines at
// once (the fleet's topology: engines on different devices sharing the
// process pool), each computing a row-tiled product with its own WaitGroup.
// Run under -race by `make check`.
func TestPoolSharedAcrossGoroutines(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	r := rng.New(5)
	a := Randn(r, 0, 1, 31, 17)
	b := Randn(r, 0, 1, 17, 13)
	want := MatMul(a, b)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var run sync.WaitGroup
			got := New(31, 13)
			gd, ad, bd := got.Data(), a.Data(), b.Data()
			for iter := 0; iter < 50; iter++ {
				p.RunWith(&run, 31, 4, func(_, lo, hi int) {
					MatMulSlices(gd[lo*13:hi*13], ad[lo*17:hi*17], bd, hi-lo, 17, 13)
				})
				if !got.Equal(want) {
					errs <- "concurrent parallel product diverged"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

func TestTranspose2DInto(t *testing.T) {
	r := rng.New(6)
	a := Randn(r, 0, 1, 5, 9)
	want := Transpose2D(a)
	got := New(9, 5)
	Transpose2DInto(got, a)
	if !got.Equal(want) {
		t.Fatal("Transpose2DInto differs from Transpose2D")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-shape dst did not panic")
		}
	}()
	Transpose2DInto(New(5, 9), a)
}
