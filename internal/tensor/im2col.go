package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution or pooling window over
// a (C, H, W) input.
type ConvGeom struct {
	InC, InH, InW int // input channels / height / width
	KH, KW        int // kernel height / width
	StrideH       int
	StrideW       int
	PadH          int
	PadW          int
}

// OutH returns the output height of the window sweep.
func (g ConvGeom) OutH() int { return (g.InH+2*g.PadH-g.KH)/g.StrideH + 1 }

// OutW returns the output width of the window sweep.
func (g ConvGeom) OutW() int { return (g.InW+2*g.PadW-g.KW)/g.StrideW + 1 }

// Validate reports an error for degenerate geometry.
func (g ConvGeom) Validate() error {
	switch {
	case g.InC <= 0 || g.InH <= 0 || g.InW <= 0:
		return fmt.Errorf("tensor: conv geometry has non-positive input dims %+v", g)
	case g.KH <= 0 || g.KW <= 0:
		return fmt.Errorf("tensor: conv geometry has non-positive kernel dims %+v", g)
	case g.StrideH <= 0 || g.StrideW <= 0:
		return fmt.Errorf("tensor: conv geometry has non-positive stride %+v", g)
	case g.PadH < 0 || g.PadW < 0:
		return fmt.Errorf("tensor: conv geometry has negative padding %+v", g)
	case g.OutH() <= 0 || g.OutW() <= 0:
		return fmt.Errorf("tensor: conv geometry produces empty output %+v", g)
	}
	return nil
}

// Im2ColInto expands a (C, H, W) input into a (C*KH*KW, OutH*OutW) matrix so
// a convolution becomes a single matmul with the (OutC, C*KH*KW) kernel
// matrix. It works over bare row-major slices, so callers expand samples out
// of a larger batch buffer without building tensor headers: dst must have
// InC*KH*KW*OutH*OutW elements and src InC*InH*InW. It is the single im2col
// kernel in the package, so every convolution expands windows in exactly the
// same order.
func Im2ColInto(dst, src []float64, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	cols := outH * outW
	rows := g.InC * g.KH * g.KW
	if len(dst) != rows*cols {
		panic(fmt.Sprintf("tensor: Im2Col dst volume %d != %d", len(dst), rows*cols))
	}
	if len(src) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Im2Col src volume %d != %d", len(src), g.InC*g.InH*g.InW))
	}
	sd, dd := src, dst
	// At unit column stride the in-bounds outputs [lo, hi) of an output row
	// read one contiguous run of an input row. When output rows are also
	// input rows (unit row stride, equal widths — every "same"-padded
	// convolution), the runs of the in-bounds rows [ohLo, ohHi) abut in both
	// matrices and the whole plane is one copy.
	unitW := g.StrideW == 1
	samePlane := unitW && g.StrideH == 1 && outW == g.InW
	row := 0
	for c := 0; c < g.InC; c++ {
		chanBase := c * g.InH * g.InW
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				drow := dd[row*cols : (row+1)*cols]
				row++
				lo := min(max(g.PadW-kw, 0), outW)
				hi := max(min(g.InW+g.PadW-kw, outW), lo)
				if samePlane {
					ohLo := min(max(g.PadH-kh, 0), outH)
					ohHi := max(min(g.InH+g.PadH-kh, outH), ohLo)
					clear(drow[:ohLo*outW])
					clear(drow[ohHi*outW:])
					if ohLo < ohHi && lo < hi {
						first, last := ohLo*outW+lo, (ohHi-1)*outW+hi
						shift := chanBase + (kh-g.PadH)*g.InW + kw - g.PadW
						copy(drow[first:last], sd[shift+first:])
					}
					// the copy carried input across the row ends; zero it
					for oh := ohLo; oh < ohHi; oh++ {
						zeroOutside(drow[oh*outW:(oh+1)*outW], lo, hi)
					}
					continue
				}
				for oh := 0; oh < outH; oh++ {
					out := drow[oh*outW : (oh+1)*outW]
					ih := oh*g.StrideH + kh - g.PadH
					if ih < 0 || ih >= g.InH {
						clear(out)
						continue
					}
					rowBase := chanBase + ih*g.InW
					if unitW {
						copy(out[lo:hi], sd[rowBase+lo+kw-g.PadW:])
						zeroOutside(out, lo, hi)
						continue
					}
					for ow := range out {
						iw := ow*g.StrideW + kw - g.PadW
						if iw < 0 || iw >= g.InW {
							out[ow] = 0
						} else {
							out[ow] = sd[rowBase+iw]
						}
					}
				}
			}
		}
	}
}

// zeroOutside zeroes row[:lo] and row[hi:], the few padded elements at the
// ends of an im2col output row (a loop, not clear: both are usually empty).
func zeroOutside(row []float64, lo, hi int) {
	for i := 0; i < lo; i++ {
		row[i] = 0
	}
	for i := hi; i < len(row); i++ {
		row[i] = 0
	}
}

// Col2ImInto is the adjoint of Im2ColInto: it scatters a
// (C*KH*KW, OutH*OutW) column matrix back into a (C, H, W) image, zeroing dst
// first and accumulating where windows overlap. It works over bare row-major
// slices, so the training plan scatters per-sample input gradients into rows
// of a larger batch buffer without building tensor headers.
func Col2ImInto(dst, src []float64, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	cols := outH * outW
	rows := g.InC * g.KH * g.KW
	if len(src) != rows*cols {
		panic(fmt.Sprintf("tensor: Col2Im src volume %d != %d", len(src), rows*cols))
	}
	if len(dst) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Col2Im dst volume %d != %d", len(dst), g.InC*g.InH*g.InW))
	}
	for i := range dst {
		dst[i] = 0
	}
	sd, dd := src, dst
	row := 0
	for c := 0; c < g.InC; c++ {
		chanBase := c * g.InH * g.InW
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				srow := sd[row*cols : (row+1)*cols]
				idx := 0
				for oh := 0; oh < outH; oh++ {
					ih := oh*g.StrideH + kh - g.PadH
					if ih < 0 || ih >= g.InH {
						idx += outW
						continue
					}
					rowBase := chanBase + ih*g.InW
					for ow := 0; ow < outW; ow++ {
						iw := ow*g.StrideW + kw - g.PadW
						if iw >= 0 && iw < g.InW {
							dd[rowBase+iw] += srow[idx]
						}
						idx++
					}
				}
				row++
			}
		}
	}
}
