package wire

import (
	"math"
	"math/bits"
)

//go:generate go run ./pow10gen -o pow10tab.go

// This file holds the two float64 ⇄ decimal kernels of the codec. Both
// multiply by the 128-bit powers of ten of pow10tab; both are held to strconv
// bit for bit and byte for byte by the sweep and fuzz tests in float_test.go.

// exactPow10 are the powers of ten a float64 holds exactly.
var exactPow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// decimalToFloat returns the float64 nearest ±man·10^exp10 (ties to even), or
// ok false when neither fast path can tell: the caller then asks strconv.
//
// Clinger's path: a significand below 2^53 and a power of ten up to 1e22 are
// both exact float64s, so the one IEEE multiply or divide rounds correctly.
// Otherwise Eisel–Lemire (https://nigeltao.github.io/blog/2020/eisel-lemire.html,
// strconv's eiselLemire64 is the reference): man times the truncated 128-bit
// power gives a product whose top 54 bits are right unless the bits below
// them are all ones (the truncation error could carry) or all zeros on an
// odd 54th bit (an exact half-way, which way to round is in digits not seen).
// Subnormal and overflowing results are declined too.
func decimalToFloat(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	if man == 0 {
		if neg {
			f = math.Copysign(0, -1)
		}
		return f, true
	}
	if man>>53 == 0 && -22 <= exp10 && exp10 <= 22 {
		f = float64(int64(man))
		if exp10 < 0 {
			f /= exactPow10[-exp10]
		} else {
			f *= exactPow10[exp10]
		}
		if neg {
			f = -f
		}
		return f, true
	}
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	pow := &pow10tab[exp10-pow10Min]
	lz := bits.LeadingZeros64(man)
	man <<= uint(lz)
	// biased exponent of the result if the product's top bit comes out set
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(lz)
	hi, lo := bits.Mul64(man, pow[0])
	if hi&0x1FF == 0x1FF && lo+man < man {
		// the low 9 bits could still take a carry from the part of the power
		// the first multiply left out: bring in its low word
		hi2, lo2 := bits.Mul64(man, pow[1])
		mid, carry := bits.Add64(lo, hi2, 0)
		top := hi + carry
		if top&0x1FF == 0x1FF && mid+1 == 0 && lo2+man < man {
			return 0, false
		}
		hi, lo = top, mid
	}
	msb := hi >> 63
	m := hi >> (msb + 9) // 54 bits: one more than the significand holds
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1FF == 0 && m&3 == 1 {
		return 0, false // half-way between two floats, the lower one even
	}
	m = (m + m&1) >> 1
	if m>>53 != 0 {
		m >>= 1
		exp2++
	}
	if exp2-1 >= 0x7FF-1 { // exp2 <= 0: subnormal; >= 0x7FF: overflow
		return 0, false
	}
	b := exp2<<52 | m&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}

// shortestDecimal returns the shortest decimal that reads back as the
// positive finite float64 with the given bits: value = dig·10^exp10, where
// dig < 1e17 may end in zeros that are not part of it; of the shortest
// candidates it is the closest to the value, ties to even — what strconv's
// 'g'/-1 formatting picks.
//
// The algorithm is Schubfach (Giulietti, "The Schubfach way to render
// doubles"): scale the value c·2^q and the two midpoints to its neighbours
// by 10^-k, where k = ⌊log10 2^q⌋ makes the scaled integer part s at most 17
// digits; every candidate is s or s+1, or those with their last digit
// dropped. Each scaled quantity keeps two fraction bits and a sticky bit
// (roundToOdd), enough to order it exactly against the candidates ×4.
func shortestDecimal(b uint64) (dig uint64, exp10 int) {
	frac, e := b&(1<<52-1), int(b>>52&0x7FF)
	c, q := frac, -1074
	if e != 0 {
		c, q = frac|1<<52, e-1075
	}
	// an even significand owns the midpoints (round-half-even reads them back)
	var inside uint64
	if c&1 != 0 {
		inside = 1
	}
	// the lower neighbour is half as far below a power of two
	cbl, k := 4*c-2, q*1262611>>22 // ⌊q·log10 2⌋
	if frac == 0 && e > 1 {
		cbl, k = 4*c-1, (q*1262611-524031)>>22 // ⌊log10(3/4·2^q)⌋
	}
	h := uint(q + (-k*1741647)>>19 + 1) // q + ⌊-k·log2 10⌋ + 1, in [1, 4]
	pow := &pow10tab[-k-pow10Min]
	// Schubfach wants 10^-k rounded up, the table has it rounded down; no
	// row's low word is all ones (TestPow10Table), so nothing carries
	ghi, glo := pow[0], pow[1]+1
	lower := roundToOdd(ghi, glo, cbl<<h) + inside
	v := roundToOdd(ghi, glo, 4*c<<h)
	upper := roundToOdd(ghi, glo, (4*c+2)<<h) - inside

	s := v >> 2
	if s >= 10 {
		// one digit fewer: t·10^(k+1) or (t+1)·10^(k+1), if exactly one fits
		t := s / 10
		under, over := lower <= 40*t, 40*t+40 <= upper
		if under != over {
			if over {
				t++
			}
			return t, k + 1
		}
	}
	under, over := lower <= 4*s, 4*s+4 <= upper
	if under != over {
		if over {
			s++
		}
		return s, k
	}
	// both fit (or, for the smallest subnormals, neither does): the closer
	if mid := 4*s + 2; v > mid || v == mid && s&1 != 0 {
		s++
	}
	return s, k
}

// roundToOdd returns the integer part of g·cp / 2^128 with the lowest bit
// also set if any lower bit of the product was (g = ghi·2^64 + glo).
func roundToOdd(ghi, glo, cp uint64) uint64 {
	xhi, _ := bits.Mul64(glo, cp)
	yhi, ylo := bits.Mul64(ghi, cp)
	mid, carry := bits.Add64(ylo, xhi, 0)
	yhi += carry
	if mid > 1 {
		yhi |= 1
	}
	return yhi
}

// pow10u64[n] is 10^n.
var pow10u64 = [...]uint64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// decimalLen returns how many decimal digits v != 0 has.
func decimalLen(v uint64) int {
	n := bits.Len64(v) * 1233 >> 12 // ⌊bits·log10 2⌋: the length or one less
	if v >= pow10u64[n] {
		n++
	}
	return n
}

// digits8 returns the eight decimal digits of v < 1e8, leading zeros
// included, one to a byte and the first in the lowest: add '0' to each and
// store little-endian to spell it. Three rounds split the lanes of a word in
// two — one number into two of four digits, those into four of two digits,
// those into eight digits — each lane divided by a multiply and a shift
// that are exact over the lane's range.
func digits8(v uint32) uint64 {
	w := uint64(v/1e4) | uint64(v%1e4)<<32
	q := w * 10486 >> 20 & 0x0000007F0000007F // lane / 100, lane < 1e4
	w = q | (w-q*100)<<16
	q = w * 103 >> 10 & 0x000F000F000F000F // lane / 10, lane < 100
	return q | (w-q*10)<<8
}
