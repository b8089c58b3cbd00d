package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestSplitDeterminism(t *testing.T) {
	a, b := New(7), New(7)
	as, bs := a.Split(), b.Split()
	for i := 0; i < 50; i++ {
		if as.Float64() != bs.Float64() {
			t.Fatalf("split streams diverged at draw %d", i)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	// children should produce different streams from each other
	a, b := r.Split().Float64(), r.Split().Float64()
	if a == b {
		t.Fatal("sibling split streams start identically")
	}
}

func TestUniformRange(t *testing.T) {
	r := New(3)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(-2, 5)
		if v < -2 || v >= 5 {
			t.Fatalf("Uniform(-2,5) returned %v", v)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) returned %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values in 1000 draws", len(seen))
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(11)
	const n = 50000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(3, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-3) > 0.05 {
		t.Errorf("Normal(3,2) sample mean %v, want ≈3", mean)
	}
	if math.Abs(std-2) > 0.05 {
		t.Errorf("Normal(3,2) sample std %v, want ≈2", std)
	}
}

func TestLogNormalMean(t *testing.T) {
	// E[e^N(0,σ²)] = e^(σ²/2)
	r := New(13)
	const n, sigma = 200000, 0.3
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.LogNormal(0, sigma)
	}
	want := math.Exp(sigma * sigma / 2)
	if got := sum / n; math.Abs(got-want) > 0.01 {
		t.Errorf("LogNormal(0,%v) sample mean %v, want ≈%v", sigma, got, want)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(17)
	for i := 0; i < 1000; i++ {
		if v := r.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal returned non-positive %v", v)
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(19)
	const n, p = 100000, 0.137
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-p) > 0.005 {
		t.Errorf("Bernoulli(%v) hit rate %v", p, rate)
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(23)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	err := quick.Check(func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestShufflePreservesElements(t *testing.T) {
	r := New(29)
	s := []int{1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(s)
	sum := 0
	for _, v := range s {
		sum += v
	}
	if sum != 28 {
		t.Fatalf("shuffle changed element multiset, sum=%d", sum)
	}
}

func TestFillNormalLength(t *testing.T) {
	r := New(31)
	buf := make([]float64, 64)
	r.FillNormal(buf, 0, 1)
	nonzero := 0
	for _, v := range buf {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < 60 {
		t.Fatalf("FillNormal left %d zeros", 64-nonzero)
	}
}

func TestFillUniformRange(t *testing.T) {
	r := New(37)
	buf := make([]float64, 256)
	r.FillUniform(buf, 2, 3)
	for _, v := range buf {
		if v < 2 || v >= 3 {
			t.Fatalf("FillUniform produced %v outside [2,3)", v)
		}
	}
}
