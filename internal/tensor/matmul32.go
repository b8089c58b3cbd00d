package tensor

import "fmt"

// This file is the float32 half of the multi-precision kernel tier: f32
// mirrors of the hot destination-passing kernels, written in dot-product form
// with four independent accumulators and 4-wide manually unrolled inner loops
// so the adds pipeline instead of serializing on FP latency. On amd64 the
// dot-form inner loop runs as an SSE kernel (matmul32_amd64.s) whose four
// vector lanes ARE the four accumulators, bit-identical to the portable loop
// (matmul32_noasm.go) — that lane correspondence is where the tier's speedup
// over the scalar f64 reference comes from. None of these kernels promise
// the f64 summation order — the F32 tier is gated on a bounded-ULP envelope
// against the f64 reference, never on bit-identity.
//
// Summation contract: the dot-form kernels fold element products over p
// ascending into four accumulators (p%4 lanes) reduced as ((s0+s1)+(s2+s3));
// the saxpy-form kernels keep the reference (i, p, j) order in float32.
// Fused epilogues (bias, ReLU) operate on the already rounded float32 sum,
// so fusing changes no bits versus running the epilogue as a separate pass —
// which is why the engine may fuse freely within the tier while staying
// inside the same documented envelope.

// MatMulSlicesF32 computes dst = a·b over bare float32 slices: a is m×k, b is
// k×n, dst is m×n, all row-major. It is the f32 mirror of MatMulSlices: the
// saxpy (i, p, j) order and zero-skip of the reference survive (ReLU-sparse
// activations make the skip pay even on the fast tier), with the contiguous
// inner loop over b unrolled 4-wide.
func MatMulSlicesF32(dst, a, b []float32, m, k, n int) {
	if len(a) != m*k || len(b) != k*n || len(dst) != m*n {
		panic(fmt.Sprintf("tensor: MatMulSlicesF32 length mismatch dst=%d a=%d b=%d for (%d×%d)·(%d×%d)",
			len(dst), len(a), len(b), m, k, k, n))
	}
	for i := 0; i < m; i++ {
		drow := dst[i*n : (i+1)*n]
		for j := range drow {
			drow[j] = 0
		}
		arow := a[i*k : (i+1)*k]
		for p, av := range arow {
			if av == 0 {
				continue
			}
			brow := b[p*n : (p+1)*n]
			j := 0
			for ; j+3 < n; j += 4 {
				drow[j] += av * brow[j]
				drow[j+1] += av * brow[j+1]
				drow[j+2] += av * brow[j+2]
				drow[j+3] += av * brow[j+3]
			}
			for ; j < n; j++ {
				drow[j] += av * brow[j]
			}
		}
	}
}

// DenseForwardF32 computes rows [lo, hi) of dst = x·wᵀ + bias with an
// optionally fused ReLU: x is m×k, wT is n×k (the transposed weight cache),
// bias is length n, dst is m×n. This is the one fused kernel the F32 engine
// plan leans on — the dot product stays in registers, the bias lands on the
// rounded sum, and the ReLU clamps the already-final float32 value, so the
// fusion is numerically identical to running the three passes separately.
func DenseForwardF32(dst, x, wT, bias []float32, m, k, n, lo, hi int, relu bool) {
	if len(x) != m*k || len(wT) != n*k || len(bias) != n || len(dst) != m*n {
		panic(fmt.Sprintf("tensor: DenseForwardF32 length mismatch dst=%d x=%d wT=%d bias=%d for (%d×%d)·(%d×%d)ᵀ",
			len(dst), len(x), len(wT), len(bias), m, k, n, k))
	}
	if lo < 0 || hi > m || lo > hi {
		panic(fmt.Sprintf("tensor: DenseForwardF32 row range [%d, %d) out of [0, %d)", lo, hi, m))
	}
	for i := lo; i < hi; i++ {
		xr := x[i*k : (i+1)*k]
		dr := dst[i*n : (i+1)*n]
		denseRowsF32(dr, xr, wT, k)
		for j := 0; j < n; j++ {
			v := dr[j] + bias[j]
			if relu && v < 0 {
				v = 0
			}
			dr[j] = v
		}
	}
}

// Im2ColIntoF32 is the f32 mirror of Im2ColInto: it expands a (C, H, W)
// source into the (C*KH*KW, OutH*OutW) column matrix over bare f32 slices.
// Window order is identical to the f64 kernel; only the element type changes,
// so the F32 conv path inherits the reference expansion exactly.
func Im2ColIntoF32(dst, src []float32, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	cols := outH * outW
	rows := g.InC * g.KH * g.KW
	if len(dst) != rows*cols {
		panic(fmt.Sprintf("tensor: Im2ColIntoF32 dst volume %d != %d", len(dst), rows*cols))
	}
	if len(src) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Im2ColIntoF32 src volume %d != %d", len(src), g.InC*g.InH*g.InW))
	}
	row := 0
	for c := 0; c < g.InC; c++ {
		chanBase := c * g.InH * g.InW
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				drow := dst[row*cols : (row+1)*cols]
				idx := 0
				for oh := 0; oh < outH; oh++ {
					ih := oh*g.StrideH + kh - g.PadH
					if ih < 0 || ih >= g.InH {
						for ow := 0; ow < outW; ow++ {
							drow[idx] = 0
							idx++
						}
						continue
					}
					rowBase := chanBase + ih*g.InW
					for ow := 0; ow < outW; ow++ {
						iw := ow*g.StrideW + kw - g.PadW
						if iw < 0 || iw >= g.InW {
							drow[idx] = 0
						} else {
							drow[idx] = src[rowBase+iw]
						}
						idx++
					}
				}
				row++
			}
		}
	}
}
