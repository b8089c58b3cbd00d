package tensor

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"reramtest/internal/rng"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len=%d, want 24", x.Len())
	}
	if x.Rank() != 3 {
		t.Fatalf("Rank=%d, want 3", x.Rank())
	}
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatal("New tensor not zero-filled")
		}
	}
}

func TestScalarTensor(t *testing.T) {
	x := New()
	if x.Len() != 1 || x.Rank() != 0 {
		t.Fatalf("scalar tensor Len=%d Rank=%d, want 1 and 0", x.Len(), x.Rank())
	}
}

func TestFromSliceSharesData(t *testing.T) {
	d := []float64{1, 2, 3, 4}
	x := FromSlice(d, 2, 2)
	d[0] = 9
	if x.Data()[0] != 9 {
		t.Fatal("FromSlice copied instead of wrapping")
	}
	// the header and its copy of the shape; the variadic argument itself
	// stays on the caller's stack
	if allocs := testing.AllocsPerRun(100, func() { sinkTensor = FromSlice(d, 2, 2) }); allocs != 2 {
		t.Fatalf("FromSlice allocated %v times, want 2", allocs)
	}
}

var sinkTensor *Tensor

func TestFromSliceVolumeMismatchPanics(t *testing.T) {
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "length 3 does not match shape [2 2] (volume 4)") {
			t.Fatalf("FromSlice volume mismatch: panic %q", msg)
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestCloneIndependence(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3}, 3)
	y := x.Clone()
	y.Data()[0] = 99
	if x.Data()[0] != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestReshapeView(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Data()[0] = 99
	if x.Data()[0] != 99 {
		t.Fatal("Reshape did not alias storage")
	}
	if y.Dim(0) != 3 || y.Dim(1) != 2 {
		t.Fatal("Reshape wrong shape")
	}
}

// TestResliceRows: the view is re-pointed in place — same *Tensor, new
// extent over the caller's buffer — and the switch allocates nothing.
func TestResliceRows(t *testing.T) {
	buf := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	v := New(0, 2)
	v.ResliceRows(buf, 3)
	if v.Dim(0) != 3 || v.Dim(1) != 2 || v.Len() != 6 || v.Data()[2*2+1] != 6 {
		t.Fatalf("3-row view: shape %v, %d elements", v.Shape(), v.Len())
	}
	v.Data()[0] = 99
	if buf[0] != 99 {
		t.Fatal("ResliceRows did not alias the buffer")
	}
	if allocs := testing.AllocsPerRun(20, func() { v.ResliceRows(buf, 4); v.ResliceRows(buf, 1) }); allocs != 0 {
		t.Fatalf("ResliceRows allocated %v times per switch pair", allocs)
	}
	if v.Dim(0) != 1 || v.Len() != 2 {
		t.Fatalf("1-row view: shape %v, %d elements", v.Shape(), v.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ResliceRows past the buffer did not panic")
		}
	}()
	v.ResliceRows(buf, 5)
}

func TestReshapeBadVolumePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad reshape did not panic")
		}
	}()
	New(2, 3).Reshape(4, 2)
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 4)
	if x.Sum() != 10 {
		t.Fatalf("Sum=%v", x.Sum())
	}
	if x.Mean() != 2.5 {
		t.Fatalf("Mean=%v", x.Mean())
	}
	if x.Min() != 1 || x.Max() != 4 {
		t.Fatalf("Min/Max=%v/%v", x.Min(), x.Max())
	}
	wantStd := math.Sqrt(1.25)
	if math.Abs(x.Std()-wantStd) > 1e-12 {
		t.Fatalf("Std=%v want %v", x.Std(), wantStd)
	}
}

func TestArgMaxFirstOnTies(t *testing.T) {
	x := FromSlice([]float64{1, 5, 5, 2}, 4)
	if x.ArgMax() != 1 {
		t.Fatalf("ArgMax=%d, want 1", x.ArgMax())
	}
}

func TestClamp(t *testing.T) {
	x := FromSlice([]float64{-2, 0.5, 3}, 3)
	x.ClampInPlace(0, 1)
	want := []float64{0, 0.5, 1}
	for i, v := range x.Data() {
		if v != want[i] {
			t.Fatalf("Clamp got %v", x.Data())
		}
	}
}

func TestEqualAndAllClose(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := FromSlice([]float64{1, 2.0000001}, 2)
	if a.Equal(b) {
		t.Fatal("Equal ignored tiny difference")
	}
	if a.Equal(FromSlice([]float64{1, 2}, 1, 2)) {
		t.Fatal("Equal ignored shape difference")
	}
}

func TestApplyAndMap(t *testing.T) {
	a := FromSlice([]float64{1, 4, 9}, 3)
	a.Apply(func(v float64) float64 { return -v })
	if a.Data()[0] != -1 {
		t.Fatal("Apply did not mutate in place")
	}
}

func TestRandnShapeAndSpread(t *testing.T) {
	r := rng.New(5)
	x := Randn(r, 0, 1, 100, 10)
	if x.Dim(0) != 100 || x.Dim(1) != 10 {
		t.Fatalf("Randn shape %v", x.Shape())
	}
	if s := x.Std(); s < 0.9 || s > 1.1 {
		t.Fatalf("Randn std %v, want ≈1", s)
	}
}

func TestCopyFrom(t *testing.T) {
	a := New(2, 2)
	b := FromSlice([]float64{1, 2, 3, 4}, 4)
	a.CopyFrom(b)
	if a.Data()[3] != 4 {
		t.Fatal("CopyFrom did not copy data")
	}
}

// Property: Sum is linear — Sum(a·s) = s·Sum(a).
func TestSumLinearityProperty(t *testing.T) {
	err := quick.Check(func(seed int64, sRaw int8) bool {
		s := float64(sRaw) / 16
		x := RandUniform(rng.New(seed), -1, 1, 17)
		want := x.Sum() * s
		got := x.Clone().Apply(func(v float64) float64 { return v * s }).Sum()
		return math.Abs(want-got) < 1e-9
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// Property: Clamp is idempotent and bounded.
func TestClampProperty(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		x := RandUniform(rng.New(seed), -3, 3, 64)
		x.ClampInPlace(-1, 1)
		once := x.Clone()
		x.ClampInPlace(-1, 1)
		if !x.Equal(once) {
			return false
		}
		return x.Min() >= -1 && x.Max() <= 1
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// Property: Std is translation-invariant.
func TestStdTranslationInvariance(t *testing.T) {
	err := quick.Check(func(seed int64, shiftRaw int8) bool {
		shift := float64(shiftRaw)
		x := RandUniform(rng.New(seed), 0, 1, 33)
		y := x.Clone().Apply(func(v float64) float64 { return v + shift })
		return math.Abs(x.Std()-y.Std()) < 1e-9
	}, nil)
	if err != nil {
		t.Error(err)
	}
}
