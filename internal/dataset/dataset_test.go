package dataset

import (
	"testing"
	"testing/quick"

	"reramtest/internal/rng"
	"reramtest/internal/tensor"
)

func TestSynthDigitsDeterminism(t *testing.T) {
	a := SynthDigits(42, DefaultDigitsConfig(50))
	b := SynthDigits(42, DefaultDigitsConfig(50))
	if !a.X.Equal(b.X) {
		t.Fatal("same seed produced different images")
	}
	for i := range a.Y {
		if a.Y[i] != b.Y[i] {
			t.Fatal("same seed produced different labels")
		}
	}
	c := SynthDigits(43, DefaultDigitsConfig(50))
	if a.X.Equal(c.X) {
		t.Fatal("different seeds produced identical images")
	}
}

// classCounts is the histogram of labels over classes.
func classCounts(labels []int, classes int) []int {
	counts := make([]int, classes)
	for _, y := range labels {
		counts[y]++
	}
	return counts
}

// checkConsistent fails t unless d's tensor holds exactly N samples and
// every label is a class index.
func checkConsistent(t *testing.T, d *Dataset) {
	t.Helper()
	if d.X.Len() != d.N()*d.SampleDim() {
		t.Fatalf("tensor volume %d != %d samples × %d", d.X.Len(), d.N(), d.SampleDim())
	}
	for i, y := range d.Y {
		if y < 0 || y >= d.Classes {
			t.Fatalf("label %d of sample %d out of range [0,%d)", y, i, d.Classes)
		}
	}
}

func TestSynthDigitsShapeAndRange(t *testing.T) {
	d := SynthDigits(1, DefaultDigitsConfig(30))
	checkConsistent(t, d)
	if d.C != 1 || d.H != 28 || d.W != 28 || d.Classes != 10 {
		t.Fatalf("unexpected dataset geometry %+v", d)
	}
	if d.X.Min() < 0 || d.X.Max() > 1 {
		t.Fatalf("pixel range [%v, %v] outside [0,1]", d.X.Min(), d.X.Max())
	}
}

func TestSynthDigitsClassCoverage(t *testing.T) {
	d := SynthDigits(2, DefaultDigitsConfig(500))
	for c, n := range classCounts(d.Y, d.Classes) {
		if n < 20 {
			t.Fatalf("class %d has only %d samples in 500", c, n)
		}
	}
}

func TestSynthDigitsSignalPresent(t *testing.T) {
	// each image must contain bright stroke pixels and dark background
	cfg := DefaultDigitsConfig(20)
	cfg.Noise = 0
	d := SynthDigits(3, cfg)
	dim := d.SampleDim()
	for i := 0; i < d.N(); i++ {
		img := tensor.FromSlice(d.X.Data()[i*dim:(i+1)*dim], dim)
		if img.Max() < 0.5 {
			t.Fatalf("sample %d has no stroke (max %v)", i, img.Max())
		}
		if img.Min() > 0.2 {
			t.Fatalf("sample %d has no background (min %v)", i, img.Min())
		}
	}
}

func TestSynthDigitsMorphLabels(t *testing.T) {
	cfg := DefaultDigitsConfig(3000)
	cfg.MorphP = 1 // everything is a morph
	d := SynthDigits(4, cfg)
	valid := map[int]bool{}
	for _, p := range morphPairs {
		valid[p.withSeg] = true
		valid[p.without] = true
	}
	for i, y := range d.Y {
		if !valid[y] {
			t.Fatalf("morph sample %d has label %d outside any morph pair", i, y)
		}
	}
	// coin-flip labels: both sides of some pair must appear
	counts := classCounts(d.Y, d.Classes)
	if counts[8] == 0 || counts[0] == 0 {
		t.Fatal("morph labelling never chose one side of the 8/0 pair")
	}
}

func TestSynthObjectsDeterminism(t *testing.T) {
	a := SynthObjects(7, DefaultObjectsConfig(30))
	b := SynthObjects(7, DefaultObjectsConfig(30))
	if !a.X.Equal(b.X) {
		t.Fatal("same seed produced different images")
	}
}

func TestSynthObjectsShapeAndRange(t *testing.T) {
	d := SynthObjects(8, DefaultObjectsConfig(30))
	checkConsistent(t, d)
	if d.C != 3 || d.H != 32 || d.W != 32 || d.Classes != 10 {
		t.Fatalf("unexpected dataset geometry %+v", d)
	}
	if d.X.Min() < 0 || d.X.Max() > 1 {
		t.Fatalf("pixel range [%v, %v] outside [0,1]", d.X.Min(), d.X.Max())
	}
}

func TestSubsetCopies(t *testing.T) {
	d := SynthDigits(9, DefaultDigitsConfig(20))
	s := d.Subset([]int{3, 7})
	if s.N() != 2 || s.Y[0] != d.Y[3] || s.Y[1] != d.Y[7] {
		t.Fatal("Subset selected wrong samples")
	}
	clear(s.X.Data())
	if d.X.Sum() == 0 {
		t.Fatal("Subset shares storage with parent")
	}
}

func TestHead(t *testing.T) {
	d := SynthDigits(10, DefaultDigitsConfig(20))
	h := d.Head(5)
	if h.N() != 5 {
		t.Fatalf("Head(5) has %d samples", h.N())
	}
	if h2 := d.Head(100); h2.N() != 20 {
		t.Fatalf("Head(100) of 20 has %d samples", h2.N())
	}
}

func TestBatchesCoverAllSamples(t *testing.T) {
	d := SynthDigits(11, DefaultDigitsConfig(25))
	it := d.BatchIterator(8)
	it.Reset(nil)
	batches, total := 0, 0
	for {
		x, y, ok := it.Next()
		if !ok {
			break
		}
		if x.Dim(0) != len(y) {
			t.Fatal("batch X/Y length mismatch")
		}
		// unshuffled batches preserve order
		if y[0] != d.Y[total] {
			t.Fatal("unshuffled batch reordered samples")
		}
		batches++
		total += len(y)
	}
	if batches != 4 {
		t.Fatalf("25 samples in batches of 8: got %d batches", batches)
	}
	if total != 25 {
		t.Fatalf("batches cover %d of 25 samples", total)
	}
}

func TestBatchesShuffleKeepsMultiset(t *testing.T) {
	d := SynthDigits(12, DefaultDigitsConfig(40))
	it := d.BatchIterator(7)
	it.Reset(rng.New(1))
	counts := make([]int, 10)
	for {
		_, y, ok := it.Next()
		if !ok {
			break
		}
		for _, c := range y {
			counts[c]++
		}
	}
	want := classCounts(d.Y, d.Classes)
	for c := range counts {
		if counts[c] != want[c] {
			t.Fatalf("shuffled batches changed class histogram: %v vs %v", counts, want)
		}
	}
}

// Property: generation is size-prefix-stable per seed — the first k images of
// an n-image dataset equal the k-image dataset... not guaranteed by the
// implementation (one RNG stream), so instead check a weaker invariant: all
// images differ from each other (the renderer never degenerates).
func TestDigitsImagesDistinct(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		d := SynthDigits(seed, DefaultDigitsConfig(10))
		dim := d.SampleDim()
		for i := 0; i < d.N(); i++ {
			for j := i + 1; j < d.N(); j++ {
				a := tensor.FromSlice(d.X.Data()[i*dim:(i+1)*dim], dim)
				b := tensor.FromSlice(d.X.Data()[j*dim:(j+1)*dim], dim)
				if a.Equal(b) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 5})
	if err != nil {
		t.Error(err)
	}
}
