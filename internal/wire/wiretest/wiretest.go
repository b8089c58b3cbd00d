// Package wiretest holds the /v1/infer conformance tables and the
// encoding/json oracle, shared by the codec's own tests, the HTTP-level tests
// in netserve and the fuzz target's seed corpus.
package wiretest

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"reramtest/internal/wire"
)

// Case is one request body.
type Case struct {
	Name string
	Body string
}

// Row renders one input row of width values, the first spelled first and
// the rest 0.25.
func Row(first string, width int) string {
	return "[" + first + strings.Repeat(",0.25", width-1) + "]"
}

// Rows renders n well-formed rows as the value of "input".
func Rows(n, width int) string {
	rows := make([]string, n)
	for i := range rows {
		rows[i] = Row(fmt.Sprintf("0.%d", i+1), width)
	}
	return "[" + strings.Join(rows, ",") + "]"
}

func body(input string) string {
	return `{"tenant":"t","priority":"bulk","input":` + input + `}`
}

// Rejects are bodies a tier of the given input width and row limit must
// refuse with ErrInvalid / HTTP 400. encoding/json tolerates several of them.
func Rejects(width, maxRows int) []Case {
	cases := []Case{
		{"empty body", ``},
		{"not an object", `[` + Rows(1, width) + `]`},
		{"unterminated object", `{"tenant":"t","input":` + Rows(1, width)},
		{"trailing comma", `{"tenant":"t","input":` + Rows(1, width) + `,}`},
		{"missing colon", `{"tenant" "t","input":` + Rows(1, width) + `}`},
		{"data after the closing brace", body(Rows(1, width)) + ` x`},
		{"second object after the closing brace", body(Rows(1, width)) + body(Rows(1, width))},
		{"null input", body(`null`)},
		{"input not an array", body(`"rows"`)},
		{"empty batch", body(`[]`)},
		{"empty row", body(`[[]]`)},
		{"row not an array", body(`[0.5]`)},
		{"duplicate input", `{"tenant":"t","input":` + Rows(1, width) + `,"input":` + Rows(1, width) + `}`},
		{"one row over the limit", body(Rows(maxRows+1, width))},
		{"one value over the width", body(`[` + Row("0.5", width+1) + `]`)},
		{"short row", body(`[` + Row("0.5", width-1) + `]`)},
		{"short second row", body(`[` + Row("0.5", width) + `,` + Row("0.5", width-1) + `]`)},
		{"row cut short", `{"tenant":"t","input":[[0.5`},
		{"case-folded tenant", `{"Tenant":"t","input":` + Rows(1, width) + `}`},
		{"case-folded input", `{"tenant":"t","INPUT":` + Rows(1, width) + `}`},
		{"case-folded priority", `{"tenant":"t","Priority":"bulk","input":` + Rows(1, width) + `}`},
		{"null tenant", `{"tenant":null,"input":` + Rows(1, width) + `}`},
		{"numeric tenant", `{"tenant":7,"input":` + Rows(1, width) + `}`},
		{"null priority", `{"tenant":"t","priority":null,"input":` + Rows(1, width) + `}`},
		{"unknown priority", `{"tenant":"t","priority":"turbo","input":` + Rows(1, width) + `}`},
		{"control character in string", "{\"tenant\":\"a\nb\",\"input\":" + Rows(1, width) + `}`},
		{"invalid UTF-8 in string", "{\"tenant\":\"a\xffb\",\"input\":" + Rows(1, width) + `}`},
		{"lone surrogate escape", `{"tenant":"\ud800","input":` + Rows(1, width) + `}`},
		{"bad escape", `{"tenant":"\x41","input":` + Rows(1, width) + `}`},
		{"short \\u escape", `{"tenant":"\u00e","input":` + Rows(1, width) + `}`},
		{"unterminated string", `{"tenant":"t`},
		{"bad literal in unknown member", `{"tenant":"t","x":nul,"input":` + Rows(1, width) + `}`},
		{"unknown member nested too deep", `{"tenant":"t","x":` + strings.Repeat("[", 40) + strings.Repeat("]", 40) + `,"input":` + Rows(1, width) + `}`},
	}
	for _, num := range []string{"01", "1.", ".5", "+1", "-", "1e", "1e+", "1e999", "-1e999", "NaN", "Infinity", "-Infinity", "0x10", "1_0", "null", "true", `"1"`} {
		cases = append(cases, Case{"value " + num, body(`[` + Row(num, width) + `]`)})
	}
	return cases
}

// Accepts are bodies the same tier must answer 200.
func Accepts(width, maxRows int) []Case {
	cases := []Case{
		{"members as the bench gate orders them", `{"tenant":"t","priority":"bulk","input":` + Rows(1, width) + `}`},
		{"members as loadgen orders them", `{"input":` + Rows(1, width) + `,"priority":"bulk","tenant":"t"}`},
		{"no priority", `{"tenant":"t","input":` + Rows(1, width) + `}`},
		{"empty priority", `{"tenant":"t","priority":"","input":` + Rows(1, width) + `}`},
		{"monitor priority", `{"tenant":"t","priority":"monitor","input":` + Rows(1, width) + `}`},
		{"full batch", body(Rows(maxRows, width))},
		{"unknown members skipped", `{"trace":{"id":"a]b","hops":[1,2.5e3,{"deep":[true,false,null]}],"note":"\"q\" é 😀"},"tenant":"t","n":-0.0,"input":` + Rows(2, width) + `,"z":[]}`},
		{"whitespace anywhere", " \t\r\n{ \"tenant\" : \"t\" ,\n\t\"input\" : [ " + strings.ReplaceAll(Row("0.5", width), ",", " ,\n ") + " ]\r\n} \n"},
		{"escapes in the tenant", `{"tenant":"a\"b\\c\/d\b\f\n\r\t\u00e9\ud83d\ude00\u2028é😀","input":` + Rows(1, width) + `}`},
		{"escaped member name", `{"\u0074enant":"t","\u0069nput":` + Rows(1, width) + `}`},
		{"last tenant wins", `{"tenant":"first","tenant":"second","input":` + Rows(1, width) + `}`},
	}
	for _, num := range []string{"0", "-0", "-0.0", "1e-7", "1E+2", "5e-324", "1.7976931348623157e308", "1e-999", "123456789012345678901234567890.5", "0.1000000000000000055511151231257827"} {
		cases = append(cases, Case{"value " + num, body(`[` + Row(num, width) + `]`)})
	}
	return cases
}

// AgreesWithJSON checks a request the strict decoder accepted against
// encoding/json reading the same bytes: json must accept them too and yield
// the same tenant, the same priority and bit-identical floats.
func AgreesWithJSON(body []byte, got wire.Request) error {
	var want struct {
		Tenant   string      `json:"tenant"`
		Priority string      `json:"priority"`
		Input    [][]float64 `json:"input"`
	}
	if err := json.Unmarshal(body, &want); err != nil {
		return fmt.Errorf("strict decoder accepted what encoding/json refuses: %v", err)
	}
	if got.Tenant != want.Tenant {
		return fmt.Errorf("tenant %q, encoding/json says %q", got.Tenant, want.Tenant)
	}
	if got.Monitor != (want.Priority == "monitor") {
		return fmt.Errorf("monitor %v, encoding/json says priority %q", got.Monitor, want.Priority)
	}
	if got.X.Dim(0) != len(want.Input) {
		return fmt.Errorf("%d rows, encoding/json says %d", got.X.Dim(0), len(want.Input))
	}
	width := got.X.Dim(1)
	for r, row := range want.Input {
		if len(row) != width {
			return fmt.Errorf("row %d is %d wide, encoding/json says %d", r, width, len(row))
		}
		for c, w := range row {
			if v := got.X.Data()[r*width+c]; math.Float64bits(v) != math.Float64bits(w) {
				return fmt.Errorf("input[%d][%d] = %v, encoding/json says %v", r, c, v, w)
			}
		}
	}
	return nil
}

// Recycles decodes raw twice: into a fresh batch, and into a batch a longer
// request has already filled and that was then overwritten with NaN, the
// state a pooled batch can be in. Both must agree on accepting it; an
// accepted body must decode to the same tenant, priority, shape and bits; a
// refused one must leave the recycled batch with no rows to read, and the
// batch must then decode a good body as a fresh one does.
func Recycles(raw []byte, width, maxRows int) error {
	fresh, ferr := wire.ParseRequest(raw, wire.NewBatch(width), maxRows)
	dirty := wire.NewBatch(width)
	if _, err := wire.ParseRequest([]byte(`{"input":`+Rows(maxRows, width)+`}`), dirty, maxRows); err != nil {
		return fmt.Errorf("filling the batch: %v", err)
	}
	for i := range dirty.X.Data() {
		dirty.X.Data()[i] = math.NaN()
	}
	got, gerr := wire.ParseRequest(raw, dirty, maxRows)
	if (ferr == nil) != (gerr == nil) {
		return fmt.Errorf("a fresh batch says %v, a recycled one %v", ferr, gerr)
	}
	if gerr == nil {
		return sameRequest(got, fresh)
	}
	if n := dirty.X.Dim(0); n != 0 {
		return fmt.Errorf("a refused body left %d rows readable", n)
	}
	good := []byte(body(Rows(1, width)))
	want, _ := wire.ParseRequest(good, wire.NewBatch(width), maxRows)
	got, err := wire.ParseRequest(good, dirty, maxRows)
	if err != nil {
		return fmt.Errorf("after a refusal the batch refused a good body: %v", err)
	}
	return sameRequest(got, want)
}

// sameRequest compares two decodes of one body bit for bit.
func sameRequest(got, want wire.Request) error {
	if got.Tenant != want.Tenant || got.Monitor != want.Monitor {
		return fmt.Errorf("tenant %q monitor %v, a fresh decode says %q %v", got.Tenant, got.Monitor, want.Tenant, want.Monitor)
	}
	if got.X.Dim(0) != want.X.Dim(0) || got.X.Dim(1) != want.X.Dim(1) {
		return fmt.Errorf("shape %v, a fresh decode says %v", got.X.Shape(), want.X.Shape())
	}
	for i, w := range want.X.Data() {
		if v := got.X.Data()[i]; math.Float64bits(v) != math.Float64bits(w) {
			return fmt.Errorf("value %d = %v, a fresh decode says %v", i, v, w)
		}
	}
	return nil
}
