package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3, 4}) != 2.5 {
		t.Fatal("Mean wrong")
	}
	if Mean(nil) != 0 {
		t.Fatal("Mean of empty not 0")
	}
}

func TestStdKnownValues(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Std(xs); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Std=%v, want 2", got)
	}
}

func TestCV(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9} // mean 5, std 2
	if got := CV(xs); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("CV=%v, want 0.4", got)
	}
	if CV([]float64{0, 0}) != 0 {
		t.Fatal("CV with zero mean should be 0")
	}
}

// Property: CV is scale-invariant for positive scalings.
func TestCVScaleInvariance(t *testing.T) {
	err := quick.Check(func(raw []float64, kRaw uint8) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = math.Abs(math.Mod(v, 10)) + 1 // positive, bounded
		}
		k := float64(kRaw%9) + 1
		scaled := make([]float64, len(xs))
		for i, v := range xs {
			scaled[i] = k * v
		}
		return math.Abs(CV(xs)-CV(scaled)) < 1e-9
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 0})
	if lo != -1 || hi != 7 {
		t.Fatalf("MinMax=(%v,%v)", lo, hi)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Quantile(%v)=%v, want %v", c.q, got, c.want)
		}
	}
	// interpolation between order statistics
	if got := Quantile([]float64{0, 10}, 0.3); math.Abs(got-3) > 1e-12 {
		t.Fatalf("Quantile interpolation got %v, want 3", got)
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("Quantile of empty not 0")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantile sorted the caller's slice")
	}
}

func TestLinearFitRecoversLine(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = 2.5*v - 1
	}
	slope, intercept, r := LinearFit(x, y)
	if math.Abs(slope-2.5) > 1e-12 || math.Abs(intercept+1) > 1e-12 {
		t.Fatalf("fit %v,%v", slope, intercept)
	}
	if math.Abs(r-1) > 1e-12 {
		t.Fatalf("perfect line has r=%v", r)
	}
}

func TestLinearFitNegativeCorrelation(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := []float64{3, 2, 1, 0}
	_, _, r := LinearFit(x, y)
	if math.Abs(r+1) > 1e-12 {
		t.Fatalf("descending line has r=%v, want -1", r)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	slope, intercept, r := LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3})
	if slope != 0 || intercept != 2 || r != 0 {
		t.Fatalf("constant-x fit gave %v,%v,%v", slope, intercept, r)
	}
}

func TestLinearFitLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	LinearFit([]float64{1}, []float64{1, 2})
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("summary %+v", s)
	}
	empty := Summarize(nil)
	if empty.N != 0 || empty.Min != 0 || empty.Max != 0 {
		t.Fatalf("empty summary %+v", empty)
	}
	if s.String() == "" {
		t.Fatal("Summary.String empty")
	}
}

func TestLinearFitEmptyAndSinglePoint(t *testing.T) {
	if slope, intercept, r := LinearFit(nil, nil); slope != 0 || intercept != 0 || r != 0 {
		t.Fatalf("empty fit gave %v,%v,%v", slope, intercept, r)
	}
	slope, intercept, r := LinearFit([]float64{3}, []float64{7})
	if slope != 0 || intercept != 7 || r != 0 {
		t.Fatalf("single-point fit gave %v,%v,%v, want 0,7,0", slope, intercept, r)
	}
	if math.IsNaN(slope) || math.IsNaN(intercept) || math.IsNaN(r) {
		t.Fatal("degenerate fit produced NaN")
	}
}
