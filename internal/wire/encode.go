package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"unicode/utf8"

	"reramtest/internal/reram"
	"reramtest/internal/tensor"
)

// Response is what a 200 body carries.
type Response struct {
	Probs    *tensor.Tensor // (N, K)
	Shard    string
	Device   string
	Status   string
	Degraded bool
	Hedged   bool
	Retried  bool
	Attempts int
	// Cost is the measured hardware spend of the attempt that served this
	// answer; clients summing it across completed requests reproduce the
	// tier's per-tenant figure exactly (see netserve.CostStats).
	Cost reram.Cost
}

// AppendRequest appends the request body for (tenant, priority, input) to
// dst: members in name order, as encoding/json renders a map. JSON has no
// spelling for NaN or ±Inf; an input holding one is an error.
func AppendRequest(dst []byte, tenant string, monitor bool, input [][]float64) ([]byte, error) {
	dst = append(dst, `{"input":`...)
	if input == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, row := range input {
			if i > 0 {
				dst = append(dst, ',')
			}
			if row == nil {
				dst = append(dst, "null"...)
				continue
			}
			var err error
			if dst, err = appendRow(dst, row); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"priority":"`...)
	if monitor {
		dst = append(dst, "monitor"...)
	} else {
		dst = append(dst, "bulk"...)
	}
	dst = append(dst, `","tenant":`...)
	dst = appendString(dst, tenant)
	return append(dst, '}'), nil
}

// AppendResponse appends the 200 body for r to dst, newline-terminated as
// json.Encoder leaves it. A probability that is NaN or ±Inf is an error.
func AppendResponse(dst []byte, r *Response) ([]byte, error) {
	dst = append(dst, `{"probs":[`...)
	n, k := r.Probs.Dim(0), r.Probs.Dim(1)
	data := r.Probs.Data()
	for i := 0; i < n; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendRow(dst, data[i*k:(i+1)*k]); err != nil {
			return dst, err
		}
	}
	dst = append(dst, `],"shard":`...)
	dst = appendString(dst, r.Shard)
	dst = append(dst, `,"device":`...)
	dst = appendString(dst, r.Device)
	dst = append(dst, `,"status":`...)
	dst = appendString(dst, r.Status)
	dst = append(dst, `,"degraded":`...)
	dst = strconv.AppendBool(dst, r.Degraded)
	if r.Hedged {
		dst = append(dst, `,"hedged":true`...)
	}
	if r.Retried {
		dst = append(dst, `,"retried":true`...)
	}
	dst = append(dst, `,"attempts":`...)
	dst = strconv.AppendInt(dst, int64(r.Attempts), 10)
	for _, m := range [...]struct {
		name string
		v    uint64
	}{
		{`,"cost":{"computeCycles":`, r.Cost.ComputeCycles},
		{`,"dacConversions":`, r.Cost.DACConversions},
		{`,"adcConversions":`, r.Cost.ADCConversions},
		{`,"crossbarReads":`, r.Cost.CrossbarReads},
		{`,"crossbarWrites":`, r.Cost.CrossbarWrites},
		{`,"energyFJ":`, r.Cost.EnergyFJ},
		{`,"bufferBytes":`, r.Cost.BufferBytes},
	} {
		dst = append(dst, m.name...)
		dst = strconv.AppendUint(dst, m.v, 10)
	}
	return append(dst, "}}\n"...), nil
}

// appendRow appends one bracketed row of numbers.
func appendRow(dst []byte, row []float64) ([]byte, error) {
	dst = append(dst, '[')
	for i, v := range row {
		if i > 0 {
			dst = append(dst, ',')
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return dst, fmt.Errorf("wire: JSON cannot carry %v", v)
		}
		dst = appendFloat(dst, v)
	}
	return append(dst, ']'), nil
}

// maxFloatLen bounds one rendered number: a sign, then at most "0.00000" and
// 17 digits in fixed notation, which no exponent form outgrows.
const maxFloatLen = 1 + 7 + 17

// appendFloat renders a finite v the way encoding/json does (ES6 number to
// string): shortest round-trip digits, exponent form below 1e-6 and from
// 1e21 up, and a one-digit exponent spelled e-7, not e-07.
func appendFloat(dst []byte, v float64) []byte {
	b := math.Float64bits(v)
	dst = slices.Grow(dst, maxFloatLen)
	buf := dst[len(dst) : len(dst)+maxFloatLen]
	n := 0
	if b>>63 != 0 {
		buf[0] = '-'
		n = 1
		b &^= 1 << 63
	}
	if b == 0 {
		buf[n] = '0'
		return dst[:len(dst)+n+1]
	}
	dig, exp10 := shortestDecimal(b)
	// All 17 digit places, dig left-justified in them, as three pieces: what
	// is stored past the digits that count is overwritten or cut off below.
	width := decimalLen(dig)
	point := width + exp10 // the value is 0.dig × 10^point
	dig *= pow10u64[17-width]
	rest := dig % 1e16
	hi, lo := digits8(uint32(rest/1e8)), digits8(uint32(rest%1e8))
	// the digits that count: 17 less the trailing zeros, which are the zero
	// bytes at the top of the words (eight of them in a word that is 0)
	nd := 17 - bits.LeadingZeros64(lo)/8
	if lo == 0 {
		nd = 9 - bits.LeadingZeros64(hi)/8
	}
	put := func(at int) {
		buf[at] = byte('0' + dig/1e16)
		binary.LittleEndian.PutUint64(buf[at+1:], hi+0x3030303030303030)
		binary.LittleEndian.PutUint64(buf[at+9:], lo+0x3030303030303030)
	}
	switch {
	case point < -5 || point > 21:
		// d.ddde±x; the digits go down one place late and the first moves up
		put(n + 1)
		buf[n] = buf[n+1]
		n++
		if nd > 1 {
			buf[n] = '.'
			n += nd
		}
		buf[n], buf[n+1] = 'e', '+'
		x := point - 1
		if x < 0 {
			buf[n+1], x = '-', -x
		}
		n += 2
		if x >= 100 {
			buf[n] = byte('0' + x/100)
			n++
		}
		if x >= 10 {
			buf[n] = byte('0' + x/10%10)
			n++
		}
		buf[n] = byte('0' + x%10)
		n++
	case point <= 0:
		copy(buf[n:], "0.00000"[:2-point])
		n += 2 - point
		put(n)
		n += nd
	case point < nd:
		put(n + 1)
		copy(buf[n:], buf[n+1:n+1+point])
		buf[n+point] = '.'
		n += nd + 1
	default:
		put(n)
		copy(buf[n+17:], "0000") // places 18 to 21
		n += point
	}
	return dst[:len(dst)+n]
}

const hexDigits = "0123456789abcdef"

// appendString quotes s the way encoding/json does with its default HTML
// escaping: ", \ and control characters escaped, <, > and & as \u00XX,
// U+2028/U+2029 escaped, each invalid UTF-8 byte replaced by the escape \ufffd.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= ' ' && c < utf8.RuneSelf && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		r, size := rune(c), 1
		if c >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(s[i:])
			if !(r == utf8.RuneError && size == 1) && r != '\u2028' && r != '\u2029' {
				i += size
				continue
			}
		}
		dst = append(dst, s[start:i]...)
		switch {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c == '\b':
			dst = append(dst, '\\', 'b')
		case c == '\f':
			dst = append(dst, '\\', 'f')
		case c == '\n':
			dst = append(dst, '\\', 'n')
		case c == '\r':
			dst = append(dst, '\\', 'r')
		case c == '\t':
			dst = append(dst, '\\', 't')
		case c < utf8.RuneSelf:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
		case r == utf8.RuneError:
			dst = append(dst, `\ufffd`...)
		default:
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
