package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"reramtest/internal/rng"
)

func TestConvGeomOutputDims(t *testing.T) {
	g := ConvGeom{InC: 1, InH: 28, InW: 28, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2}
	if g.OutH() != 28 || g.OutW() != 28 {
		t.Fatalf("same-padding 5x5: out %dx%d, want 28x28", g.OutH(), g.OutW())
	}
	g2 := ConvGeom{InC: 3, InH: 32, InW: 32, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	if g2.OutH() != 16 || g2.OutW() != 16 {
		t.Fatalf("2x2 stride-2: out %dx%d, want 16x16", g2.OutH(), g2.OutW())
	}
}

func TestConvGeomValidate(t *testing.T) {
	good := ConvGeom{InC: 1, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 1, StrideW: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	for _, bad := range []ConvGeom{
		{InC: 0, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 1, StrideW: 1},
		{InC: 1, InH: 4, InW: 4, KH: 0, KW: 2, StrideH: 1, StrideW: 1},
		{InC: 1, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 0, StrideW: 1},
		{InC: 1, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 1, StrideW: 1, PadH: -1},
		{InC: 1, InH: 2, InW: 2, KH: 5, KW: 5, StrideH: 1, StrideW: 1},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("invalid geometry %+v accepted", bad)
		}
	}
}

func TestIm2Col1x1Identity(t *testing.T) {
	// a 1×1 kernel's column matrix is just the image flattened per channel
	g := ConvGeom{InC: 2, InH: 3, InW: 3, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
	src := FromSlice([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18}, 18)
	dst := New(2, 9)
	Im2ColInto(dst.Data(), src.Data(), g)
	if !dst.Reshape(18).Equal(src) {
		t.Fatalf("1x1 im2col is not identity: %v", dst.Data())
	}
}

func TestIm2ColKnownWindow(t *testing.T) {
	// 2×2 kernel over a 3×3 single-channel image, stride 1, no padding
	g := ConvGeom{InC: 1, InH: 3, InW: 3, KH: 2, KW: 2, StrideH: 1, StrideW: 1}
	src := FromSlice([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 9)
	dst := New(4, 4)
	Im2ColInto(dst.Data(), src.Data(), g)
	// column p corresponds to output position p; row r to kernel offset r
	want := [][]float64{
		{1, 2, 4, 5}, // kernel (0,0)
		{2, 3, 5, 6}, // kernel (0,1)
		{4, 5, 7, 8}, // kernel (1,0)
		{5, 6, 8, 9}, // kernel (1,1)
	}
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			if got := dst.Data()[r*4+c]; got != want[r][c] {
				t.Fatalf("im2col[%d][%d]=%v, want %v", r, c, got, want[r][c])
			}
		}
	}
}

func TestIm2ColZeroPadding(t *testing.T) {
	g := ConvGeom{InC: 1, InH: 2, InW: 2, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	src := FromSlice([]float64{1, 2, 3, 4}, 4)
	dst := New(9, 4)
	Im2ColInto(dst.Data(), src.Data(), g)
	// top-left output position, kernel offset (0,0) looks at (-1,-1): padded 0
	if got := dst.Data()[0]; got != 0 {
		t.Fatalf("padded region not zero: %v", got)
	}
	// centre of kernel at output (0,0) is input (0,0) = 1
	if got := dst.Data()[4*4]; got != 1 {
		t.Fatalf("kernel centre wrong: %v", got)
	}
}

// TestCol2ImAdjoint verifies the defining property of the adjoint:
// ⟨Im2ColInto(x), y⟩ = ⟨x, Col2ImInto(y)⟩ for all x, y.
func TestCol2ImAdjoint(t *testing.T) {
	geoms := []ConvGeom{
		{InC: 1, InH: 5, InW: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1},
		{InC: 2, InH: 6, InW: 4, KH: 2, KW: 2, StrideH: 2, StrideW: 2},
		{InC: 3, InH: 5, InW: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
	}
	for gi, g := range geoms {
		err := quick.Check(func(seed int64) bool {
			r := rng.New(seed)
			rows := g.InC * g.KH * g.KW
			cols := g.OutH() * g.OutW()
			x := RandUniform(r, -1, 1, g.InC*g.InH*g.InW)
			y := RandUniform(r, -1, 1, rows*cols)
			ix := New(rows, cols)
			Im2ColInto(ix.Data(), x.Data(), g)
			cy := New(g.InC * g.InH * g.InW)
			Col2ImInto(cy.Data(), y.Data(), g)
			return math.Abs(dot(ix.Data(), y.Data())-dot(x.Data(), cy.Data())) < 1e-9
		}, &quick.Config{MaxCount: 20})
		if err != nil {
			t.Errorf("geometry %d: %v", gi, err)
		}
	}
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func TestCol2ImAccumulatesOverlaps(t *testing.T) {
	// 2×2 kernel stride 1 over 3×3: centre pixel (1,1) is covered by all 4
	// windows, so scattering all-ones columns back accumulates 4 there.
	g := ConvGeom{InC: 1, InH: 3, InW: 3, KH: 2, KW: 2, StrideH: 1, StrideW: 1}
	cols := Full(1, 4, 4)
	img := New(9)
	Col2ImInto(img.Data(), cols.Data(), g)
	if img.Data()[4] != 4 {
		t.Fatalf("centre accumulation %v, want 4", img.Data()[4])
	}
	if img.Data()[0] != 1 {
		t.Fatalf("corner accumulation %v, want 1", img.Data()[0])
	}
}

// im2colByFormula is the definition Im2ColInto must equal: element
// (c·KH·KW + kh·KW + kw, oh·OutW + ow) is input (c, oh·SH+kh−PH, ow·SW+kw−PW),
// or zero outside the image.
func im2colByFormula(src []float64, g ConvGeom) []float64 {
	outH, outW := g.OutH(), g.OutW()
	dst := make([]float64, g.InC*g.KH*g.KW*outH*outW)
	for i := range dst {
		row, col := i/(outH*outW), i%(outH*outW)
		c, kh, kw := row/(g.KH*g.KW), row/g.KW%g.KH, row%g.KW
		ih, iw := col/outW*g.StrideH+kh-g.PadH, col%outW*g.StrideW+kw-g.PadW
		if ih >= 0 && ih < g.InH && iw >= 0 && iw < g.InW {
			dst[i] = src[(c*g.InH+ih)*g.InW+iw]
		}
	}
	return dst
}

// TestIm2ColMatchesFormula sweeps a geometry grid through every copy path of
// Im2ColInto — whole-plane and per-row runs at unit stride, the element loop
// otherwise — including padding that reaches past the kernel (rows and
// columns of pure zeros), non-square images and a kernel wider than the
// image. Im2Col delegates to Im2ColInto, so nothing else sees the formula.
func TestIm2ColMatchesFormula(t *testing.T) {
	var geoms []ConvGeom
	for _, in := range [][2]int{{5, 5}, {4, 7}, {7, 3}, {2, 2}} {
		for _, kern := range [][2]int{{1, 1}, {3, 3}, {2, 3}, {5, 5}, {3, 5}} {
			for _, stride := range [][2]int{{1, 1}, {2, 2}, {1, 2}, {2, 1}} {
				for _, pad := range [][2]int{{0, 0}, {1, 1}, {2, 2}, {0, 2}, {3, 1}} {
					geoms = append(geoms, ConvGeom{InC: 2, InH: in[0], InW: in[1], KH: kern[0], KW: kern[1],
						StrideH: stride[0], StrideW: stride[1], PadH: pad[0], PadW: pad[1]})
				}
			}
		}
	}
	checked := 0
	for _, g := range geoms {
		if g.Validate() != nil {
			continue
		}
		checked++
		src := RandUniform(rng.New(int64(checked)), 1, 2, g.InC*g.InH*g.InW).Data()
		want := im2colByFormula(src, g)
		got := make([]float64, len(want))
		for i := range got {
			got[i] = -1 // an element Im2ColInto fails to write must show
		}
		Im2ColInto(got, src, g)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%+v: element %d = %v, formula says %v", g, i, got[i], want[i])
			}
		}
	}
	if checked < 200 {
		t.Fatalf("only %d geometries of the grid were valid", checked)
	}
}
