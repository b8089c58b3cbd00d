package reram

import (
	"math"
	"testing"
	"testing/quick"

	"reramtest/internal/rng"
	"reramtest/internal/tensor"
)

func idealParams() DeviceParams {
	p := DefaultDeviceParams()
	p.ProgramSigma = 0
	p.DriftRate = 0
	p.DriftJitter = 0
	p.SoftErrorRate = 0
	return p
}

func TestQuantizerIdealPassThrough(t *testing.T) {
	q := Quantizer{Bits: 0}
	if q.Quantize(0.12345) != 0.12345 {
		t.Fatal("ideal quantizer modified value")
	}
}

func TestQuantizerSnapsAndSaturates(t *testing.T) {
	q := Quantizer{Bits: 2, Lo: 0, Hi: 3} // levels 0,1,2,3
	cases := map[float64]float64{
		-5: 0, 0: 0, 0.4: 0, 0.6: 1, 1.4: 1, 2.6: 3, 99: 3,
	}
	for in, want := range cases {
		if got := q.Quantize(in); got != want {
			t.Fatalf("Quantize(%v)=%v, want %v", in, got, want)
		}
	}
}

// Property: quantization is idempotent, monotone and bounded.
func TestQuantizerProperties(t *testing.T) {
	q := Quantizer{Bits: 5, Lo: -1, Hi: 1}
	err := quick.Check(func(a, b float64) bool {
		a, b = math.Mod(a, 3), math.Mod(b, 3)
		qa, qb := q.Quantize(a), q.Quantize(b)
		if q.Quantize(qa) != qa { // idempotent
			return false
		}
		if a <= b && qa > qb { // monotone
			return false
		}
		return qa >= -1 && qa <= 1 // bounded
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestCrossbarProgramReadback(t *testing.T) {
	dev := idealParams()
	x := NewCrossbar(4, 4, dev, rng.New(1))
	g := tensor.Full(50e-6, 4, 4)
	x.Program(g)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if got := x.Conductance(i, j); got != 50e-6 {
				t.Fatalf("cell (%d,%d) reads %v", i, j, got)
			}
		}
	}
}

func TestCrossbarProgramClamps(t *testing.T) {
	dev := idealParams()
	x := NewCrossbar(1, 2, dev, rng.New(2))
	g := tensor.FromSlice([]float64{1, -1}, 1, 2) // way out of range
	x.Program(g)
	if x.Conductance(0, 0) != dev.GOn {
		t.Fatalf("over-range programmed to %v", x.Conductance(0, 0))
	}
	if x.Conductance(0, 1) != dev.GOff {
		t.Fatalf("under-range programmed to %v", x.Conductance(0, 1))
	}
}

func TestCrossbarMatVec(t *testing.T) {
	dev := idealParams()
	x := NewCrossbar(2, 2, dev, rng.New(3))
	g := tensor.FromSlice([]float64{10e-6, 20e-6, 30e-6, 40e-6}, 2, 2)
	x.Program(g)
	out := make([]float64, 2)
	x.MatVec([]float64{1, 0.5}, out)
	if math.Abs(out[0]-(10e-6+0.5*30e-6)) > 1e-18 {
		t.Fatalf("bitline 0 current %v", out[0])
	}
	if math.Abs(out[1]-(20e-6+0.5*40e-6)) > 1e-18 {
		t.Fatalf("bitline 1 current %v", out[1])
	}
}

func TestStuckAtCellsIgnoreWrites(t *testing.T) {
	dev := idealParams()
	dev.SA0Rate, dev.SA1Rate = 0.3, 0.2
	x := NewCrossbar(20, 20, dev, rng.New(4))
	sa0, sa1 := stuckCounts(x)
	if sa0 == 0 || sa1 == 0 {
		t.Fatalf("expected fabrication faults, got sa0=%d sa1=%d", sa0, sa1)
	}
	x.Program(tensor.Full(50e-6, 20, 20))
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			g := x.Conductance(i, j)
			if g != 50e-6 && g != dev.GOff && g != dev.GOn {
				t.Fatalf("cell (%d,%d) conductance %v is neither written nor stuck", i, j, g)
			}
		}
	}
}

func TestInjectStuckAtIncreasesFaults(t *testing.T) {
	x := NewCrossbar(30, 30, idealParams(), rng.New(5))
	sa0Before, _ := stuckCounts(x)
	x.InjectStuckAt(0.2, 0.1)
	sa0After, sa1After := stuckCounts(x)
	if sa0After <= sa0Before || sa1After == 0 {
		t.Fatal("InjectStuckAt added no faults")
	}
}

func TestDriftMovesTowardHRS(t *testing.T) {
	dev := idealParams()
	dev.DriftRate = 0.01
	x := NewCrossbar(2, 2, dev, rng.New(6))
	x.Program(tensor.Full(80e-6, 2, 2))
	x.AdvanceTime(100)
	got := x.Conductance(0, 0)
	want := dev.GOff + (80e-6-dev.GOff)*math.Exp(-1)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("drifted conductance %v, want %v", got, want)
	}
	if got >= 80e-6 {
		t.Fatal("drift did not reduce conductance")
	}
}

func TestSoftErrorEventsOccur(t *testing.T) {
	dev := idealParams()
	dev.SoftErrorRate = 0.05
	x := NewCrossbar(20, 20, dev, rng.New(7))
	x.Program(tensor.Full(50e-6, 20, 20))
	x.AdvanceTime(10)
	changed := 0
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			if x.Conductance(i, j) != 50e-6 {
				changed++
			}
		}
	}
	if changed == 0 {
		t.Fatal("no soft-error disturbances after 10h at rate 0.05/h")
	}
}

func TestReprogramRestores(t *testing.T) {
	dev := idealParams()
	dev.DriftRate = 0.01
	x := NewCrossbar(3, 3, dev, rng.New(8))
	x.Program(tensor.Full(70e-6, 3, 3))
	x.AdvanceTime(200)
	if x.Conductance(1, 1) == 70e-6 {
		t.Fatal("drift had no effect")
	}
	x.Reprogram()
	if x.Conductance(1, 1) != 70e-6 {
		t.Fatalf("reprogram restored to %v", x.Conductance(1, 1))
	}
}

func TestMapLinearEffectiveWeightsRoundTrip(t *testing.T) {
	cfg := Config{TileRows: 8, TileCols: 8, DACBits: 0, ADCBits: 0, Device: idealParams()}
	r := rng.New(9)
	w := tensor.Randn(r, 0, 0.5, 12, 10) // forces 2x2 tiling
	tl := MapLinear(w, cfg, r)
	if tl.TileCount() != 2*2*2 {
		t.Fatalf("tile count %d, want 8", tl.TileCount())
	}
	got := effectiveWeights(tl)
	if maxAbsDiff(got, w) > 1e-9 {
		t.Fatalf("effective weights diverge: max err %v", maxAbsDiff(got, w))
	}
}

func TestMapLinearMatVecMatchesDigital(t *testing.T) {
	cfg := Config{TileRows: 16, TileCols: 16, DACBits: 0, ADCBits: 0, Device: idealParams()}
	r := rng.New(10)
	w := tensor.Randn(r, 0, 0.5, 5, 7)
	tl := MapLinear(w, cfg, r)
	x := make([]float64, 7)
	rng.New(11).FillUniform(x, 0, 1)
	got := make([]float64, 5)
	tl.MatVecInto(got, x)
	want := tensor.MatMul(w, tensor.FromSlice(x, 7, 1)).Data()
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("analog MatVec[%d]=%v, digital %v", i, got[i], want[i])
		}
	}
}

func TestMapLinearQuantizedMatVecClose(t *testing.T) {
	cfg := Config{TileRows: 16, TileCols: 16, DACBits: 8, ADCBits: 10, Device: idealParams()}
	r := rng.New(12)
	w := tensor.Randn(r, 0, 0.5, 6, 8)
	tl := MapLinear(w, cfg, r)
	x := make([]float64, 8)
	rng.New(13).FillUniform(x, 0, 1)
	got := make([]float64, 6)
	tl.MatVecInto(got, x)
	want := tensor.MatMul(w, tensor.FromSlice(x, 8, 1)).Data()
	scale := 0.0
	for _, v := range want {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 0.05*(scale+1) {
			t.Fatalf("quantized MatVec[%d]=%v too far from %v", i, got[i], want[i])
		}
	}
}

func TestMapLinearProgrammingNoise(t *testing.T) {
	dev := idealParams()
	dev.ProgramSigma = 0.2
	cfg := Config{TileRows: 32, TileCols: 32, Device: dev}
	r := rng.New(14)
	w := tensor.Randn(r, 0, 0.5, 20, 20)
	tl := MapLinear(w, cfg, r)
	got := effectiveWeights(tl)
	if maxAbsDiff(got, w) <= 1e-6 {
		t.Fatal("programming noise had no effect")
	}
	// but the weights are still correlated with the targets
	diff := maxAbsDiff(got, w)
	if diff > 3*0.5 {
		t.Fatalf("noise destroyed weights entirely: max err %v", diff)
	}
}

func TestZeroWeightMatrix(t *testing.T) {
	cfg := Config{TileRows: 8, TileCols: 8, Device: idealParams()}
	r := rng.New(15)
	tl := MapLinear(tensor.New(4, 4), cfg, r)
	got := effectiveWeights(tl)
	if got.Min() != 0 || got.Max() != 0 {
		t.Fatalf("all-zero layer read back non-zero: %v", got.Data())
	}
}

// stuckCounts counts x's SA0 and SA1 cells.
func stuckCounts(x *Crossbar) (sa0, sa1 int) {
	for _, s := range x.state {
		switch s {
		case CellSA0:
			sa0++
		case CellSA1:
			sa1++
		}
	}
	return sa0, sa1
}

// effectiveWeights reads tl's weights back into a fresh (Out, In) tensor.
func effectiveWeights(tl *TiledLinear) *tensor.Tensor {
	w := tensor.New(tl.Out, tl.In)
	tl.EffectiveWeightsInto(w)
	return w
}

func maxAbsDiff(a, b *tensor.Tensor) float64 {
	m := 0.0
	for i, v := range a.Data() {
		if d := math.Abs(v - b.Data()[i]); d > m {
			m = d
		}
	}
	return m
}
