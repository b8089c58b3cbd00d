package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// refNumber is number() as it stood before the kernels: the RFC 8259 grammar
// checked by hand, the span handed to strconv.ParseFloat. It returns the
// value, where the cursor ends up and whether the number was accepted.
func refNumber(b []byte) (v float64, end int, ok bool) {
	digits := func(i int) int {
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i
	}
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if j := digits(i); j > i {
		i = j
	} else {
		return 0, 0, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(i + 1)
		if j == i+1 {
			return 0, j, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(i)
		if j == i {
			return 0, j, false
		}
		i = j
	}
	v, err := strconv.ParseFloat(string(b[:i]), 64)
	if err != nil {
		return 0, 0, false
	}
	return v, i, true
}

// refAppendFloat is appendFloat as it stood before the kernels.
func refAppendFloat(dst []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// checkNumber holds number() to refNumber on one input: same verdict, same
// bits, same cursor (on a refusal the cursor is where the error points).
func checkNumber(t testing.TB, in []byte) {
	want, wantEnd, wantOK := refNumber(in)
	d := decoder{b: in}
	got, err := d.number()
	switch {
	case (err == nil) != wantOK:
		t.Fatalf("number(%q): err = %v, the reference accepts: %v", in, err, wantOK)
	case d.i != wantEnd:
		t.Fatalf("number(%q): cursor at %d, the reference at %d", in, d.i, wantEnd)
	case math.Float64bits(got) != math.Float64bits(want):
		t.Fatalf("number(%q) = %v (%#x), strconv says %v (%#x)", in, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// checkRender holds appendFloat to refAppendFloat on one finite value.
func checkRender(t testing.TB, v float64) {
	var a, b [32]byte
	if got, want := appendFloat(a[:0], v), refAppendFloat(b[:0], v); !bytes.Equal(got, want) {
		t.Fatalf("appendFloat(%#x) = %s, strconv says %s", math.Float64bits(v), got, want)
	}
}

// checkFloat is checkRender, and number() held to strconv on that value
// spelled three ways: the shortest digits, 17 digits (one more than many
// values need, so Eisel–Lemire sees a long significand) and 15 digits
// (another value nearby).
func checkFloat(t testing.TB, v float64) {
	checkRender(t, v)
	var b [32]byte
	checkNumber(t, refAppendFloat(b[:0], v))
	checkNumber(t, strconv.AppendFloat(b[:0], v, 'e', 16, 64))
	checkNumber(t, strconv.AppendFloat(b[:0], v, 'e', 14, 64))
}

// checkSpellings is checkFloat plus the spellings that cost strconv its
// multi-precision path on both sides: 20 digits (more than the scanner's
// significand holds) and plain fixed notation, however long.
func checkSpellings(t testing.TB, v float64) {
	checkFloat(t, v)
	checkNumber(t, strconv.AppendFloat(nil, v, 'e', 19, 64))
	checkNumber(t, strconv.AppendFloat(nil, v, 'f', -1, 64))
}

// numberCorpus are the spellings where a decimal-to-binary kernel and strconv
// are likeliest to part ways; the fuzz target starts from them too.
var numberCorpus = []string{
	"9007199254740993", "9007199254740992.5", "9007199254740993.0000000000000001", "9007199254740991",
	"2.2250738585072011e-308", "2.2250738585072012e-308", "2.2250738585072014e-308",
	"5e-324", "4.9e-324", "2.4703282292062327e-324", "2.4703282292062328e-324", "2.5e-324", "2.4e-324",
	"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308", "1.8e308", "1e309",
	"1e22", "1e23", "1e-22", "1e-23", "123e22", "9007199254740991e22", "9007199254740992e22", "1e37",
	"1234567890123456789", "12345678901234567890", "1234567890123456789012345678901234567890",
	"0.1234567890123456789", "0.12345678901234567890", "1844674407370955161.5", "18446744073709551615", "18446744073709551616",
	"0." + strings.Repeat("0", 30), "0." + strings.Repeat("0", 30) + "1", "-0." + strings.Repeat("0", 30),
	"0.000001234567890123456789", "0.00000000000000000001", "0.00000000000000000000e5",
	"1E5", "1e+5", "1e-0", "1e0", "0e0", "0e999", "0e-999", "-0", "-0.0", "-0e5", "0", "0.0", "1", "-1", "0.5", "0.25",
	"1e400", "-1e400", "1e-400", "1e99999999999999999999", "1e-99999999999999999999", "0.1e99999999999999999999",
	"1e347", "1e348", "1e-348", "1e-349", "123456789e-357", "1e-325", "1e-324", "1e-323",
	"0.6180339887498949", "0.00392156862745098", "0.12345678", "0.123456789", "0.1234567", "12345678.12345678",
	"1.00000000", "1.000000000", "100000000.00000000", "0.30000000000000004", "0.1000000000000000055511151231257827",
	"6.62607015e-34", "6.02214076e23", "8.98846567431158e307", "4.4501477170144023e-308", "18014398509481988", "18014398509481990",
	// refused, or accepted short of the whole input
	"", "-", "+1", ".5", "1.", "1.e5", "1e", "1e+", "1e-", "01", "00", "-01", "0x10", "1_0", "inf", "NaN", "Infinity",
	"1.5.5", "1e5e5", "1,2", "1]", "1 ", "0.5]", "1e5,", "1.2345678x", "1.23456789012345678x", "0.12345678/", "0.12345678:",
}

func TestNumberMatchesStrconv(t *testing.T) {
	for _, s := range numberCorpus {
		checkNumber(t, []byte(s))
		checkNumber(t, []byte("-"+s))
		// the scanner's 8-byte loads must not read a digit out of what follows
		checkNumber(t, []byte(s+",0.99999999]"))
		checkNumber(t, []byte(s+"9999999"))
	}
}

// renderCorpus are the values at the renderer's seams: both notation
// thresholds, the subnormal and finite extremes, an odd significand whose
// rounding interval ends on a shorter decimal it may not take (…988), short
// integers and fractions.
var renderCorpus = []float64{0, 1, 5e-324, 1e-323, 1.5e-323, 2.2250738585072014e-308, 2.225073858507201e-308, math.MaxFloat64,
	1e21, 9.99e20, 999999999999999900000, 1e-6, 9.999999e-7, 1e-7, 1.5e-7, 1e20, 1e22, 1e23, 123456789.125, 0.1, 0.2, 0.3, 1.0 / 3,
	100, 1e15, 1e16, 1e17, 9007199254740992, 9007199254740994, 18014398509481988, 18014398509481992, 0.000001, 0.0000123, 12345.678,
	4.35, 0.00392156862745098, 0.6180339887498949, 5e-7, 123e-20, 1.7976931348623157e308, 8.41e21, 2e-323, 9.5367431640625e-7}

func TestAppendFloatMatchesStrconv(t *testing.T) {
	for _, v := range renderCorpus {
		checkSpellings(t, v)
		checkSpellings(t, -v)
	}
}

// TestKernelsSweep is the deterministic differential sweep: every power of
// two from the smallest subnormal up with both neighbours, 100 000
// subnormals (rendered; one in 64 parsed back as well) and 1 000 000 random
// bit patterns over the whole exponent range.
func TestKernelsSweep(t *testing.T) {
	for e := -1074; e <= 1023; e++ {
		v := math.Ldexp(1, e)
		checkSpellings(t, v)
		checkSpellings(t, math.Nextafter(v, 0))
		checkSpellings(t, math.Nextafter(v, math.Inf(1)))
	}
	rng := rand.New(rand.NewSource(23))
	for n := range 100_000 {
		v := math.Float64frombits(rng.Uint64() >> 12) // exponent field 0
		checkRender(t, v)
		// both sides parse a subnormal on strconv's multi-precision path,
		// 20 µs a time: every one would be a minute under the race detector
		if n%64 == 0 {
			checkFloat(t, v)
		}
	}
	for n := 0; n < 1_000_000; {
		if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
			checkFloat(t, v)
			n++
		}
	}
}

// TestPow10Table recomputes every row of the committed table: 10^k (or its
// reciprocal) in math/big, cut to its top 128 bits, rounded down.
func TestPow10Table(t *testing.T) {
	if len(pow10tab) != pow10Max-pow10Min+1 {
		t.Fatalf("%d rows for [%d, %d]", len(pow10tab), pow10Min, pow10Max)
	}
	one, ten := big.NewInt(1), big.NewInt(10)
	for k := pow10Min; k <= pow10Max; k++ {
		row := pow10tab[k-pow10Min]
		m := new(big.Int).SetUint64(row[0])
		m.Lsh(m, 64).Or(m, new(big.Int).SetUint64(row[1]))
		// m·2^sh <= 10^k < (m+1)·2^sh, cross-multiplied for k < 0
		sh := 217706*k>>16 - 127
		lo, hi := new(big.Int).Set(m), new(big.Int).Add(m, one)
		pow := new(big.Int).Exp(ten, big.NewInt(int64(max(k, -k))), nil)
		unit := new(big.Int).Lsh(one, uint(max(sh, -sh)))
		switch {
		case k < 0: // m·10^-k <= 2^-sh < (m+1)·10^-k
			lo.Mul(lo, pow)
			hi.Mul(hi, pow)
			pow = unit
		case sh < 0: // m <= 10^k·2^-sh < m+1
			pow.Mul(pow, unit)
		default:
			lo.Mul(lo, unit)
			hi.Mul(hi, unit)
		}
		if row[0]>>63 != 1 || lo.Cmp(pow) > 0 || hi.Cmp(pow) <= 0 {
			t.Fatalf("1e%d: {%#x, %#x} is not the top 128 bits of it, rounded down", k, row[0], row[1])
		}
		if row[1] == math.MaxUint64 {
			t.Fatalf("1e%d: the renderer's low word + 1 would carry", k)
		}
	}
}

// TestEightDigitWords holds the two word-at-a-time helpers to fmt: every
// four-digit value in both halves of the word (each lane's divide-by-multiply
// over its whole range), and every byte value in every place of a load.
func TestEightDigitWords(t *testing.T) {
	var b [8]byte
	for i := uint32(0); i < 1e4; i++ {
		for _, v := range []uint32{i*1e4 + i, i*1e4 + 9999 - i} {
			binary.LittleEndian.PutUint64(b[:], digits8(v)+0x3030303030303030)
			if want := fmt.Sprintf("%08d", v); string(b[:]) != want {
				t.Fatalf("digits8(%d) spells %q", v, b[:])
			}
			if back, ok := eightDigits(binary.LittleEndian.Uint64(b[:])); !ok || back != uint64(v) {
				t.Fatalf("eightDigits(%q) = %d, %v", b[:], back, ok)
			}
		}
	}
	for at := range b {
		for c := 0; c < 256; c++ {
			copy(b[:], "90817263")
			b[at] = byte(c)
			if _, ok := eightDigits(binary.LittleEndian.Uint64(b[:])); ok != ('0' <= c && c <= '9') {
				t.Fatalf("eightDigits(%q) ok = %v", b[:], ok)
			}
		}
	}
}

func FuzzNumberVsStrconv(f *testing.F) {
	for _, s := range numberCorpus {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		checkNumber(t, in)
	})
}

func FuzzAppendFloatVsStrconv(f *testing.F) {
	for _, v := range renderCorpus {
		f.Add(math.Float64bits(v))
	}
	for e := -1074; e <= 1023; e++ {
		b := math.Float64bits(math.Ldexp(1, e))
		f.Add(b - 1)
		f.Add(b)
		f.Add(b + 1)
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		v := math.Float64frombits(b)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		checkFloat(t, v)
		out := appendFloat(nil, v)
		if back, err := strconv.ParseFloat(string(out), 64); err != nil || math.Float64bits(back) != b {
			t.Fatalf("appendFloat(%#x) = %s reads back as %v, %v", b, out, back, err)
		}
	})
}
