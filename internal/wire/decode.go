package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"reramtest/internal/reram"
	"reramtest/internal/tensor"
)

// Request is a decoded POST /v1/infer body.
type Request struct {
	Tenant  string
	Monitor bool           // "priority":"monitor"; absent, "" and "bulk" are bulk
	X       *tensor.Tensor // (N, inDim), freshly allocated, owned by the caller
}

// maxDepth bounds how deep a skipped unknown member may nest.
const maxDepth = 32

var (
	keyTenant   = []byte("tenant")
	keyPriority = []byte("priority")
	keyInput    = []byte("input")
)

// ParseRequest decodes one request body in a single pass. Every row of
// "input" must hold exactly inDim numbers and there may be 1..maxRows rows;
// each is checked as it streams past. Every failure wraps ErrInvalid.
func ParseRequest(body []byte, inDim, maxRows int) (Request, error) {
	d := decoder{b: body}
	var req Request
	err := d.document(func(key []byte) error {
		switch {
		case bytes.Equal(key, keyTenant):
			v, err := d.str()
			req.Tenant = string(v)
			return err
		case bytes.Equal(key, keyPriority):
			v, err := d.str()
			if err != nil {
				return err
			}
			switch string(v) {
			case "", "bulk":
				req.Monitor = false
			case "monitor":
				req.Monitor = true
			default:
				return d.errf("unknown priority %q", v)
			}
			return nil
		case bytes.Equal(key, keyInput):
			if req.X != nil {
				return d.errf("duplicate member \"input\"")
			}
			x, err := d.input(inDim, maxRows)
			req.X = x
			return err
		case bytes.EqualFold(key, keyTenant), bytes.EqualFold(key, keyPriority), bytes.EqualFold(key, keyInput):
			return d.errf("member %q: names are case-sensitive", key)
		}
		return d.skip(0)
	})
	if err != nil {
		return Request{}, err
	}
	if req.X == nil {
		return Request{}, d.errf("no \"input\" member")
	}
	return req, nil
}

// ParseResponse reads from a 200 body what a client keeping score needs: the
// degraded flag and the cost ledger, whose members are integers and are read
// as such (a uint64 above 2^53 survives). It is the client's side of the
// format, so it is lenient where ParseRequest is strict: members come in any
// order, the last of a repeated name wins, and everything else — "probs"
// included — is validated and skipped. Every failure wraps ErrInvalid.
func ParseResponse(body []byte) (degraded bool, cost reram.Cost, err error) {
	d := decoder{b: body}
	err = d.document(func(key []byte) error {
		switch string(key) {
		case "degraded":
			degraded = d.i < len(d.b) && d.b[d.i] == 't'
			if degraded {
				return d.literal("true")
			}
			return d.literal("false")
		case "cost":
			return d.object(func(key []byte) error {
				var field *uint64
				switch string(key) {
				case "computeCycles":
					field = &cost.ComputeCycles
				case "dacConversions":
					field = &cost.DACConversions
				case "adcConversions":
					field = &cost.ADCConversions
				case "crossbarReads":
					field = &cost.CrossbarReads
				case "crossbarWrites":
					field = &cost.CrossbarWrites
				case "energyFJ":
					field = &cost.EnergyFJ
				case "bufferBytes":
					field = &cost.BufferBytes
				default:
					return d.skip(0)
				}
				v, err := d.uint()
				*field = v
				return err
			})
		}
		return d.skip(0)
	})
	if err != nil {
		return false, reram.Cost{}, err
	}
	return degraded, cost, nil
}

// decoder is a cursor over one body.
type decoder struct {
	b []byte
	i int
}

func (d *decoder) errf(format string, args ...any) error {
	return fmt.Errorf("wire: offset %d: %s: %w", d.i, fmt.Sprintf(format, args...), ErrInvalid)
}

// space skips JSON whitespace.
func (d *decoder) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// eat consumes c if it is the next byte.
func (d *decoder) eat(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// document decodes a body that is one JSON object and nothing else.
func (d *decoder) document(member func(key []byte) error) error {
	d.space()
	if d.i == len(d.b) || d.b[d.i] != '{' {
		return d.errf("body is not a JSON object")
	}
	if err := d.object(member); err != nil {
		return err
	}
	d.space()
	if d.i != len(d.b) {
		return d.errf("data after the closing '}'")
	}
	return nil
}

// object walks the members of the object at the cursor: member is called
// with each name, the cursor on that member's value, and consumes the value.
func (d *decoder) object(member func(key []byte) error) error {
	if !d.eat('{') {
		return d.errf("expected an object")
	}
	d.space()
	if d.eat('}') {
		return nil
	}
	for {
		key, err := d.str()
		if err != nil {
			return err
		}
		d.space()
		if !d.eat(':') {
			return d.errf("expected ':' after member name")
		}
		d.space()
		if err := member(key); err != nil {
			return err
		}
		d.space()
		if d.eat('}') {
			return nil
		}
		if !d.eat(',') {
			return d.errf("expected ',' or '}' after member")
		}
		d.space()
	}
}

// input decodes the array of rows into a fresh (N, inDim) tensor.
func (d *decoder) input(inDim, maxRows int) (*tensor.Tensor, error) {
	if !d.eat('[') {
		return nil, d.errf("\"input\" must be an array of rows")
	}
	// Every row closes with its own ']' before the batch's and every value
	// takes at least a digit and a separator, so the bytes left in the body
	// bound the rows that can still be well formed: the backing slice is
	// sized once, never beyond maxRows nor out of proportion to the body, and
	// a body that opens one row more is refused at that row, not after it.
	rest := d.b[d.i:]
	bound := min(bytes.Count(rest, []byte{']'})-1, len(rest)/(2*inDim)+1, maxRows)
	var data []float64
	rows := 0
	for {
		d.space()
		if rows == 0 && d.eat(']') {
			return nil, d.errf("empty input batch")
		}
		if !d.eat('[') {
			return nil, d.errf("input row %d: expected '['", rows)
		}
		if rows >= bound {
			if rows == maxRows {
				return nil, d.errf("batch of more than %d rows", maxRows)
			}
			return nil, d.errf("input row %d is cut short", rows)
		}
		if data == nil {
			data = make([]float64, bound*inDim)
		}
		n, err := d.row(data[rows*inDim : (rows+1)*inDim])
		if err != nil {
			return nil, err
		}
		if n != inDim {
			return nil, d.errf("input row %d has %d values, want %d", rows, n, inDim)
		}
		rows++
		d.space()
		if d.eat(']') {
			return tensor.FromSlice(data[:rows*inDim], rows, inDim), nil
		}
		if !d.eat(',') {
			return nil, d.errf("expected ',' or ']' after input row %d", rows-1)
		}
	}
}

// row decodes the numbers of one row, after its '[', into dst and returns
// how many it held; one more than len(dst) is an error at that value.
func (d *decoder) row(dst []float64) (int, error) {
	d.space()
	if d.eat(']') {
		return 0, nil
	}
	for n := 0; ; n++ {
		v, err := d.number()
		if err != nil {
			return n, err
		}
		if n == len(dst) {
			return n, d.errf("input row has more than %d values", len(dst))
		}
		dst[n] = v
		d.space()
		if d.eat(']') {
			return n + 1, nil
		}
		if !d.eat(',') {
			return n, d.errf("expected ',' or ']' in input row")
		}
		d.space()
	}
}

// number consumes one RFC 8259 number and returns its float64 value. One
// pass checks the grammar (strconv.ParseFloat alone is laxer: hex,
// underscores, "inf", a leading '+', a bare '.') and gathers the decimal
// significand and exponent for decimalToFloat. What that declines, or a
// significand of more than 19 digits, goes to strconv on the same bytes; a
// value that overflows float64 is refused.
func (d *decoder) number() (float64, error) {
	b, i := d.b, d.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var man uint64 // wraps past 19 digits, which nd tells
	nd := 0        // digits in man, from its first non-zero one
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		j := i
		for ; j < len(b) && b[j]-'0' <= 9; j++ {
			man = man*10 + uint64(b[j]-'0')
		}
		if j == i {
			return 0, d.errf("expected a number")
		}
		nd, i = j-i, j
	}
	exp10 := 0
	if i < len(b) && b[i] == '.' {
		i++
		point := i
		if nd == 0 {
			for i < len(b) && b[i] == '0' {
				i++
			}
		}
		first := i
		for i+8 <= len(b) {
			v, ok := eightDigits(binary.LittleEndian.Uint64(b[i:]))
			if !ok {
				break
			}
			man = man*1e8 + v
			i += 8
		}
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			man = man*10 + uint64(b[i]-'0')
		}
		if i == point {
			d.i = i
			return 0, d.errf("number needs a digit after '.'")
		}
		nd += i - first
		exp10 = point - i
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		minus := i < len(b) && b[i] == '-'
		if minus || i < len(b) && b[i] == '+' {
			i++
		}
		j, e := i, 0
		for ; j < len(b) && b[j]-'0' <= 9; j++ {
			if e < 1e5 { // past any float64 already; no need to overflow int
				e = e*10 + int(b[j]-'0')
			}
		}
		if j == i {
			d.i = j
			return 0, d.errf("number needs a digit in its exponent")
		}
		if minus {
			e = -e
		}
		exp10, i = exp10+e, j
	}
	if nd <= 19 {
		if v, ok := decimalToFloat(man, exp10, neg); ok {
			d.i = i
			return v, nil
		}
	}
	v, err := strconv.ParseFloat(string(b[d.i:i]), 64)
	if err != nil {
		return 0, d.errf("number %s out of float64 range", b[d.i:i])
	}
	d.i = i
	return v, nil
}

// uint consumes one JSON number that is an unsigned integer, exactly: no
// sign, fraction or exponent, nothing past math.MaxUint64.
func (d *decoder) uint() (uint64, error) {
	b, i := d.b, d.i
	var v uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		c := uint64(b[i] - '0')
		if v > (math.MaxUint64-c)/10 {
			return 0, d.errf("integer over 64 bits")
		}
		v = v*10 + c
	}
	if i == d.i || i-d.i > 1 && b[d.i] == '0' || i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return 0, d.errf("expected an unsigned integer")
	}
	d.i = i
	return v, nil
}

// eightDigits converts eight ASCII digits, loaded little-endian (the first
// in the low byte), to their value; ok is false if any byte is not a digit.
func eightDigits(v uint64) (uint64, bool) {
	// a byte above '9' carries into its top bit in the sum, one below '0'
	// borrows into it in the difference
	if ((v+0x4646464646464646)|(v-0x3030303030303030))&0x8080808080808080 != 0 {
		return 0, false
	}
	v -= 0x3030303030303030
	v = v*10 + v>>8 // each even byte: a two-digit number
	// four of those, weighted 1e6, 1e4, 1e2 and 1 into the top half
	v = (v&0x000000FF000000FF*(100+1e6<<32) + v>>16&0x000000FF000000FF*(1+1e4<<32)) >> 32
	return v, true
}

// str consumes one string and returns its value. The result aliases the body
// unless the string held an escape.
func (d *decoder) str() ([]byte, error) {
	if !d.eat('"') {
		return nil, d.errf("expected a string")
	}
	for i := d.i; i < len(d.b); i++ {
		switch c := d.b[i]; {
		case c == '"':
			s := d.b[d.i:i]
			d.i = i + 1
			return s, nil
		case c == '\\' || c >= utf8.RuneSelf:
			return d.strSlow(i)
		case c < ' ':
			d.i = i
			return nil, d.errf("control character in string")
		}
	}
	d.i = len(d.b)
	return nil, d.errf("unterminated string")
}

// strSlow finishes str from the first escape or non-ASCII byte at i.
func (d *decoder) strSlow(i int) ([]byte, error) {
	b := d.b
	var out []byte
	copied := d.i // b[copied:i] is verified and not yet in out
	for i < len(b) {
		switch c := b[i]; {
		case c == '"':
			s := b[copied:i]
			if out != nil {
				s = append(out, s...)
			}
			d.i = i + 1
			return s, nil
		case c < ' ':
			d.i = i
			return nil, d.errf("control character in string")
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				d.i = i
				return nil, d.errf("invalid UTF-8 in string")
			}
			i += size
		case c != '\\':
			i++
		default:
			out = append(out, b[copied:i]...)
			d.i = i
			if i+1 >= len(b) {
				return nil, d.errf("unterminated string")
			}
			i += 2
			switch e := b[i-1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r, ok := hex4(b, i)
				i += 4
				if ok && utf16.IsSurrogate(r) {
					var lo rune
					if i+1 < len(b) && b[i] == '\\' && b[i+1] == 'u' {
						lo, ok = hex4(b, i+2)
					}
					r = utf16.DecodeRune(r, lo)
					ok = ok && r != utf8.RuneError
					i += 6
				}
				if !ok {
					return nil, d.errf("bad \\u escape in string")
				}
				out = utf8.AppendRune(out, r)
			default:
				return nil, d.errf("bad escape '\\%c' in string", e)
			}
			copied = i
		}
	}
	d.i = len(b)
	return nil, d.errf("unterminated string")
}

// hex4 reads four hex digits at b[i:].
func hex4(b []byte, i int) (rune, bool) {
	if i+4 > len(b) {
		return 0, false
	}
	var r rune
	for _, c := range b[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// skip validates and discards one value of an unknown member.
func (d *decoder) skip(depth int) error {
	if depth == maxDepth {
		return d.errf("value nested deeper than %d", maxDepth)
	}
	if d.i == len(d.b) {
		return d.errf("expected a value")
	}
	switch c := d.b[d.i]; c {
	case '"':
		_, err := d.str()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	case '[', '{':
		d.i++
		d.space()
		if d.eat(c + 2) { // ']' is '['+2 and '}' is '{'+2
			return nil
		}
		for {
			if c == '{' {
				if _, err := d.str(); err != nil {
					return err
				}
				d.space()
				if !d.eat(':') {
					return d.errf("expected ':' after member name")
				}
				d.space()
			}
			if err := d.skip(depth + 1); err != nil {
				return err
			}
			d.space()
			if d.eat(c + 2) {
				return nil
			}
			if !d.eat(',') {
				return d.errf("expected ',' or '%c'", c+2)
			}
			d.space()
		}
	default:
		_, err := d.number()
		return err
	}
}

func (d *decoder) literal(word string) error {
	if !bytes.HasPrefix(d.b[d.i:], []byte(word)) {
		return d.errf("expected a value")
	}
	d.i += len(word)
	return nil
}
