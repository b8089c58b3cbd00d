package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"reramtest/internal/rng"
)

// naiveMatMul is the reference implementation the optimised kernels are
// checked against.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	out := New(m, n)
	ad, bd, od := a.Data(), b.Data(), out.Data()
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += ad[i*k+p] * bd[p*n+j]
			}
			od[i*n+j] = s
		}
	}
	return out
}

// maxAbsDiff is the largest element-wise |a − b| of two equal-volume tensors.
func maxAbsDiff(a, b *Tensor) float64 {
	m := 0.0
	for i, v := range a.Data() {
		m = math.Max(m, math.Abs(v-b.Data()[i]))
	}
	return m
}

func TestMatMulKnownValues(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{5, 6, 7, 8}, 2, 2)
	got := MatMul(a, b)
	want := FromSlice([]float64{19, 22, 43, 50}, 2, 2)
	if !got.Equal(want) {
		t.Fatalf("MatMul got %v", got.Data())
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	r := rng.New(1)
	for _, dims := range [][3]int{{1, 1, 1}, {3, 4, 5}, {7, 2, 9}, {16, 16, 16}, {5, 31, 2}} {
		a := Randn(r, 0, 1, dims[0], dims[1])
		b := Randn(r, 0, 1, dims[1], dims[2])
		if got, want := MatMul(a, b), naiveMatMul(a, b); maxAbsDiff(got, want) > 1e-10 {
			t.Fatalf("MatMul mismatch at dims %v", dims)
		}
	}
}

func TestMatMulInnerMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("inner-dim mismatch did not panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestMatMulTransB(t *testing.T) {
	r := rng.New(2)
	a := Randn(r, 0, 1, 4, 6)
	b := Randn(r, 0, 1, 5, 6) // b is (n, k): a·bᵀ is (4, 5)
	got := New(4, 5)
	MatMulTransBSlices(got.Data(), a.Data(), b.Data(), 4, 6, 5)
	want := naiveMatMul(a, Transpose2D(b))
	if maxAbsDiff(got, want) > 1e-10 {
		t.Fatal("MatMulTransBSlices mismatch")
	}
}

func TestMatMulTransA(t *testing.T) {
	r := rng.New(3)
	a := Randn(r, 0, 1, 6, 4) // a is (k, m): aᵀ·b is (4, 5)
	b := Randn(r, 0, 1, 6, 5)
	got := New(4, 5)
	MatMulTransASlices(got.Data(), a.Data(), b.Data(), 6, 4, 5)
	want := naiveMatMul(Transpose2D(a), b)
	if maxAbsDiff(got, want) > 1e-10 {
		t.Fatal("MatMulTransASlices mismatch")
	}
}

func TestTranspose2DInvolution(t *testing.T) {
	r := rng.New(5)
	a := Randn(r, 0, 1, 3, 8)
	if !Transpose2D(Transpose2D(a)).Equal(a) {
		t.Fatal("double transpose is not identity")
	}
}

func TestMatMulIntoReuse(t *testing.T) {
	r := rng.New(6)
	a := Randn(r, 0, 1, 3, 3)
	b := Randn(r, 0, 1, 3, 3)
	dst := Full(123, 3, 3) // pre-filled garbage must be overwritten
	MatMulSlices(dst.Data(), a.Data(), b.Data(), 3, 3, 3)
	if maxAbsDiff(dst, naiveMatMul(a, b)) > 1e-10 {
		t.Fatal("MatMulSlices did not overwrite destination")
	}
}

// Property: (A·B)·x == A·(B·x) — associativity of the kernel, x a column.
func TestMatMulAssociativityProperty(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := rng.New(seed)
		a := Randn(r, 0, 1, 4, 5)
		b := Randn(r, 0, 1, 5, 6)
		x := Randn(r, 0, 1, 6, 1)
		return maxAbsDiff(MatMul(MatMul(a, b), x), MatMul(a, MatMul(b, x))) <= 1e-9
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Error(err)
	}
}

// Property: matmul distributes over addition: A·(B+C) == A·B + A·C.
func TestMatMulDistributivityProperty(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := rng.New(seed)
		a := Randn(r, 0, 1, 3, 4)
		b := Randn(r, 0, 1, 4, 5)
		c := Randn(r, 0, 1, 4, 5)
		bc := b.Clone()
		for i, v := range c.Data() {
			bc.Data()[i] += v
		}
		left := MatMul(a, bc)
		right := MatMul(a, b)
		for i, v := range MatMul(a, c).Data() {
			right.Data()[i] += v
		}
		return maxAbsDiff(left, right) <= 1e-9
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Error(err)
	}
}

func BenchmarkMatMul64(b *testing.B) {
	r := rng.New(1)
	x := Randn(r, 0, 1, 64, 64)
	y := Randn(r, 0, 1, 64, 64)
	dst := New(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulSlices(dst.Data(), x.Data(), y.Data(), 64, 64, 64)
	}
}
