package tensor

import "fmt"

// ConvPlan is a convolution compiled once for the blocked products: its
// (OutC, InC·KH·KW) weight matrix is a, and the right operand — the sample's
// im2col panel, which the reference builds — is read in place through a
// row-offset table instead.
//
// At unit stride, row p = (c, kh, kw) of output row oh's operand is a run of
// the input, starting at (c, oh+kh−PadH, kw−PadW). So the plan reads a
// zero-bordered copy of the sample, (InC, Hp, Wp) with Hp = InH+2·PadH and
// Wp = InW+2·PadW — the sample itself when it is unpadded — at
// off[p] + oh·Wp, off[p] = c·Hp·Wp + kh·Wp + kw, sweeping one output row of
// OutW columns per band. Every operand value is the panel's: an input element
// copied bit for bit, or a padding +0. A strided convolution's windows are
// not runs of the input; it expands the panel (Im2ColInto) and reads it as
// one contiguous (InC·KH·KW)×(OutH·OutW) matrix.
type ConvPlan struct {
	g      ConvGeom
	outC   int
	off    []int
	bands  int // output rows swept: OutH, or one band over the panel
	width  int // columns per band
	step   int // operand elements between two bands
	source int // readInput, readBordered or readPanel
}

// What a ConvPlan's operand is read from.
const (
	readInput    = iota // the sample itself: unit stride, no padding
	readBordered        // a zero-bordered copy of the sample: unit stride
	readPanel           // the sample's im2col panel: any other stride
)

// NewConvPlan compiles geometry g with outC output channels. It panics on a
// geometry g.Validate rejects or outC < 1.
func NewConvPlan(g ConvGeom, outC int) *ConvPlan {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	if outC < 1 {
		panic(fmt.Sprintf("tensor: ConvPlan needs positive output channels, got %d", outC))
	}
	c := &ConvPlan{g: g, outC: outC}
	if g.StrideH != 1 || g.StrideW != 1 {
		c.bands, c.width, c.source = 1, g.OutH()*g.OutW(), readPanel
		c.off = RowOffsets(g.InC*g.KH*g.KW, c.width)
		return c
	}
	hp, wp := g.InH+2*g.PadH, g.InW+2*g.PadW
	c.bands, c.width, c.step = g.OutH(), g.OutW(), wp
	for ch := range g.InC {
		for kh := range g.KH {
			for kw := range g.KW {
				c.off = append(c.off, (ch*hp+kh)*wp+kw)
			}
		}
	}
	if g.PadH > 0 || g.PadW > 0 {
		c.source = readBordered
	}
	return c
}

// Scratch returns the float64s Forward needs besides its output: the
// bordered copy or the im2col panel, none for an unpadded unit-stride
// convolution.
func (c *ConvPlan) Scratch() int {
	switch c.source {
	case readBordered:
		return c.g.InC * (c.g.InH + 2*c.g.PadH) * (c.g.InW + 2*c.g.PadW)
	case readPanel:
		return len(c.off) * c.width
	}
	return 0
}

// Forward convolves one sample x (InC·InH·InW) with weights w (OutC ×
// InC·KH·KW) into dst (OutC × OutH·OutW) on the host's widest register tile.
// With relu each element is ReLUBits(acc + bias[oc]), stored by the tile;
// without, acc + bias[oc]. acc is MatMulSlices's element of w times the
// sample's im2col panel, so dst is the reference chain's bits: Im2ColInto,
// MatMulSlices, the bias, then the ReLU if asked. scratch holds Scratch()
// float64s.
func (c *ConvPlan) Forward(dst, w, x, bias, scratch []float64, relu bool) {
	c.forward(hostTile, dst, w, x, bias, scratch, relu)
}

// forward is Forward on a named widest tile. On tileGeneric it is the Go
// fold throughout: the kernel off amd64, the one every register tile's
// non-finite block falls back to, and the twin the tests hold on every host.
func (c *ConvPlan) forward(t tile, dst, w, x, bias, scratch []float64, relu bool) {
	g := c.g
	if len(x) != g.InC*g.InH*g.InW || len(w) != c.outC*len(c.off) || len(bias) != c.outC ||
		len(dst) != c.outC*c.bands*c.width || len(scratch) < c.Scratch() {
		panic(fmt.Sprintf("tensor: ConvPlan.Forward lengths dst=%d w=%d x=%d bias=%d scratch=%d for %+v × %d channels",
			len(dst), len(w), len(x), len(bias), len(scratch), g, c.outC))
	}
	src := x
	switch c.source {
	case readBordered:
		src = scratch[:c.Scratch()]
		borderInto(src, x, g)
	case readPanel:
		src = scratch[:c.Scratch()]
		Im2ColInto(src, x, g)
	}
	spatial := c.bands * c.width
	if relu {
		mulBlocked(t, dst, w, src, bias, c.off, c.outC, c.width, spatial, c.bands, c.step)
		return
	}
	mulBlocked(t, dst, w, src, nil, c.off, c.outC, c.width, spatial, c.bands, c.step)
	for oc, b := range bias {
		row := dst[oc*spatial : (oc+1)*spatial]
		for i := range row {
			row[i] += b
		}
	}
}

// borderInto copies the (C, H, W) sample src into dst, its zero-bordered
// (C, H+2·PadH, W+2·PadW) copy: each input row lands at its padded position
// and the gaps between the runs — a row's right border and the next row's
// left, the border rows between two planes — are zeroed (loops, not clear:
// most gaps are a few elements).
func borderInto(dst, src []float64, g ConvGeom) {
	hp, wp := g.InH+2*g.PadH, g.InW+2*g.PadW
	at := 0 // first element of dst not yet written
	for ch := range g.InC {
		for h := range g.InH {
			pos := (ch*hp+g.PadH+h)*wp + g.PadW
			for i := at; i < pos; i++ {
				dst[i] = 0
			}
			at = pos + copy(dst[pos:pos+g.InW], src[(ch*g.InH+h)*g.InW:])
		}
	}
	for i := at; i < len(dst); i++ {
		dst[i] = 0
	}
}
