package tensor

import (
	"fmt"
	"math"
	"sync/atomic"
)

// tile names one kernel behind the blocked products: the Go fold, or one of
// amd64's register tiles in matmul_amd64.s.
type tile uint8

const (
	tileGeneric tile = iota
	tileSSE2
	tileAVX2
	tileAVX512
)

// tileHalf is the columns in one half of each register tile, one vector
// register's worth; a tile is two halves by four rows.
var tileHalf = [...]int{tileSSE2: 2, tileAVX2: 4, tileAVX512: 8}

// MatMulBlockedKernel names the widest kernel the blocked products run on
// this host — "avx512", "avx2", "sse2", or "generic" (the Go fold, the only
// kernel off amd64) — so a performance record can state the kernel that
// produced it.
func MatMulBlockedKernel() string {
	return [...]string{"generic", "sse2", "avx2", "avx512"}[hostTile]
}

// blockedFallbacks counts the row blocks the register tiles have handed back
// to the Go fold, so tests can assert that a fault map stays on the tile
// path.
var blockedFallbacks atomic.Uint64

// RowOffsets returns the row-offset table of a contiguous row-major k×n
// matrix, row p starting at element p·n: what MatMulBlockedSlices needs to
// read an ordinary matrix.
func RowOffsets(k, n int) []int {
	off := make([]int, k)
	for p := range off {
		off[p] = p * n
	}
	return off
}

// MatMulBlockedSlices computes exactly MatMulSlices's bits for dst = a·B — a
// m×k, k = len(off), dst m×n row-major, each element starting at +0 and
// folding a[i,p]·B[p,j] for p ascending — where row p of B is
// b[off[p]:off[p]+n] (RowOffsets(k, n) for a contiguous b). It runs four rows
// at a time through the widest register tile the host runs and the product is
// wide enough for (4×16 AVX-512, 4×8 AVX2 and 4×4 SSE2, in
// matmul_amd64.s), and is the f64 dense kernel of both engines' forward
// passes, the sample rows as a and the weight matrix as B; ConvPlan runs the
// same tiles for the convolutions.
//
// The tile multiplies every term; MatMulSlices skips those whose a[i,p] is
// zero. The two agree whenever every skipped product is ±0: an accumulator
// that starts at +0 is never −0 under round-to-nearest (x + y is −0 only
// when both are), so adding ±0 to it is the identity. They differ only where
// a zero a[i,p] — a stuck-at-0 conv weight, a zero activation entering a
// dense layer — faces a non-finite B[p,j], and there the tile's 0·Inf leaves
// a NaN in that output element. So a row block whose accumulators hold any
// non-finite value (the kernel tests them before it stores) is recomputed by
// the Go fold, MatMulSlices's loop reading B through the offset table, which
// also settles NaN payloads and overflow the reference's way; a block of
// finite accumulators had only finite, order-independent terms and is
// already the reference's bits.
//
// Rows past the last whole block are covered by one more block ending at row
// m, which recomputes up to three rows to the same bits. Products with fewer
// than four rows, or fewer than three columns, take the Go fold, as every
// product does off amd64.
func MatMulBlockedSlices(dst, a, b []float64, off []int, m, n int) {
	if len(a) != m*len(off) || len(dst) != m*n {
		panic(fmt.Sprintf("tensor: MatMulBlockedSlices length mismatch dst=%d a=%d for (%d×%d)·(%d×%d)",
			len(dst), len(a), m, len(off), len(off), n))
	}
	for p, o := range off {
		if o < 0 || o > len(b)-n {
			panic(fmt.Sprintf("tensor: MatMulBlockedSlices row %d at offset %d reads past the %d elements of b", p, o, len(b)))
		}
	}
	mulBlocked(hostTile, dst, a, b, nil, off, m, n, n, 1, 0)
}

// mulBlocked is the one sweep behind the blocked products, on a named widest
// tile so tests can hold every kernel the host runs to the reference. For
// each band r < bands it computes the m rows of a·B_r, a m×k with k =
// len(off), B_r's row p read at b[r·step+off[p]:][:n], row i landing at
// dst[i·ldd+r·n:][:n]; a non-nil bias (one per row) stores ReLUBits(acc +
// bias[i]), nil the raw product. The caller guarantees every read and write
// is in bounds. A 4-row block stays on its tile across the bands, so its
// slice of a stays cache-hot.
//
// The tile's two halves (matmul_amd64.s) fit it to the band: adjacent
// halves sweep a band at least a tile wide; on a band narrower than a tile
// but wider than a half the two halves overlap, covering it in one tile; a
// band exactly a half wide is paired with the next, the upper half reading
// band r+1 (a last odd band is paired with the one before it, recomputing
// that band to the same bits). A block whose tile reports a non-finite
// accumulator recomputes the bands that tile covered on the Go fold.
func mulBlocked(t tile, dst, a, b, bias []float64, off []int, m, n, ldd, bands, step int) {
	t, pair := tileShape(t, m, n, bands)
	if t == tileGeneric {
		for r := range bands {
			foldRows(dst[r*n:], a, b[r*step:], bias, off, m, n, ldd)
		}
		return
	}
	h := tileHalf[t]
	cols, hi, dhi, per := n, h, h, 1
	switch {
	case pair:
		cols, hi, per = 2*h, step, 2
	case n < 2*h:
		cols, hi, dhi = 2*h, n-h, n-h
	}
	k := len(off)
	for i := 0; i < m; i += 4 {
		i := min(i, m-4)
		d4, a4 := dst[i*ldd:], a[i*k:(i+4)*k]
		var b4 []float64
		if bias != nil {
			b4 = bias[i : i+4]
		}
		for r := 0; r < bands; r += per {
			r := min(r, bands-per)
			d, src := d4[r*n:], b[r*step:]
			if tileRows4(t, d, a4, src, b4, off, cols, ldd, hi, dhi) {
				blockedFallbacks.Add(1)
				for q := range per {
					foldRows(d[q*n:], a4, src[q*step:], b4, off, 4, n, ldd)
				}
			}
		}
	}
}

// tileShape picks the widest tile, no wider than t, that an m-row product
// of bands n columns wide fills — four rows, and columns past one half, or
// exactly one half when a second band can pair with it — and reports
// whether it pairs bands; the Go fold when no tile fits.
func tileShape(t tile, m, n, bands int) (tile, bool) {
	if m < 4 {
		return tileGeneric, false
	}
	for ; t > tileGeneric; t-- {
		switch h := tileHalf[t]; {
		case n > h:
			return t, false
		case n == h && bands > 1:
			return t, true
		}
	}
	return tileGeneric, false
}

// foldRows is the Go fold of the blocked products: m rows of dst = a·B (row p
// of B at b[off[p]:][:n], row i of dst at dst[i·ldd:][:n]) by MatMulSlices's
// loop — each element from +0, terms for p ascending, zero a[i,p] skipped —
// then, given a bias per row, ReLUBits(v + bias[i]). It is the kernel off
// amd64, for products too small for a tile, and the register tiles'
// non-finite fallback.
func foldRows(dst, a, b, bias []float64, off []int, m, n, ldd int) {
	k := len(off)
	for i := range m {
		drow := dst[i*ldd : i*ldd+n]
		clear(drow)
		for p, av := range a[i*k : (i+1)*k] {
			if av == 0 {
				continue
			}
			for j, bv := range b[off[p] : off[p]+n] {
				drow[j] += av * bv
			}
		}
		if bias != nil {
			for j, v := range drow {
				drow[j] = math.Float64frombits(ReLUBits(v + bias[i]))
			}
		}
	}
}
