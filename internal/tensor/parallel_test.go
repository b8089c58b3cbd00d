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
				seen := make([]int, n)
				p.Run(n, chunks, func(_, lo, hi int) {
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
	called := false
	p.Run(0, 4, func(_, _, _ int) { called = true })
	if called {
		t.Fatal("body invoked for empty range")
	}
}

// TestMatMulParallelBitIdentical: the worker pool must not change a single
// bit of the product relative to the serial kernel, for any worker count —
// rows are disjoint and each row keeps its summation order.
func TestMatMulParallelBitIdentical(t *testing.T) {
	r := rng.New(3)
	a := Randn(r, 0, 1, 37, 19)
	b := Randn(r, 0, 1, 19, 23)
	// sparsify a little so the av==0 skip path is exercised too
	ad := a.Data()
	for i := 0; i < len(ad); i += 5 {
		ad[i] = 0
	}
	want := MatMul(a, b)
	for _, workers := range []int{1, 2, 3, 8} {
		p := NewPool(workers)
		got := New(37, 23)
		MatMulParallelInto(p, got, a, b)
		if !got.Equal(want) {
			t.Fatalf("workers=%d: parallel product differs from serial", workers)
		}
		p.Close()
	}
	// nil pool must work too
	got := New(37, 23)
	MatMulParallelInto(nil, got, a, b)
	if !got.Equal(want) {
		t.Fatal("nil-pool product differs from serial")
	}
}

// TestPoolSharedAcrossGoroutines drives one pool from several goroutines at
// once (the fleet's topology: engines on different devices sharing the
// process pool). Run under -race by `make check`.
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
			got := New(31, 13)
			for iter := 0; iter < 50; iter++ {
				MatMulParallelInto(p, got, a, b)
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
