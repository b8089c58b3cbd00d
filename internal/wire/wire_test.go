package wire_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"reramtest/internal/hwcost"
	"reramtest/internal/tensor"
	"reramtest/internal/wire"
	"reramtest/internal/wire/wiretest"
)

const (
	lenetWidth = 784
	lenetRows  = 8
)

// awkward are the floats where a hand-rolled renderer and encoding/json are
// likeliest to part ways: signed zero, both ends of the exponent-form
// thresholds, the subnormal and finite extremes.
var awkward = []float64{0, math.Copysign(0, -1), 1, -1, 0.25, 1e-7, 1e-6, 9.999999e-7, 1e20, 1e21, 1.5e21,
	5e-324, math.MaxFloat64, -math.MaxFloat64, 1.0 / 3, 100, 1e-10, 123456789.125, 2.2250738585072014e-308}

var tenants = []string{"t", "", "tenant-07", `quo"te\back`, "<script>&amp;</script>", "caf\u00e9 \U0001F600",
	"bad\xffutf8\xc0", "ctl\x00\x01\b\f\n\r\t\x1f\x7f", "sep\u2028\u2029", "\xe2\x80"}

func TestAppendRequestMatchesEncodingJSON(t *testing.T) {
	inputs := [][][]float64{nil, {}, {nil}, {{}}, {awkward}, {awkward, {1, 2}, nil, {}}}
	for _, tenant := range tenants {
		for _, monitor := range []bool{false, true} {
			for _, input := range inputs {
				prio := "bulk"
				if monitor {
					prio = "monitor"
				}
				want, err := json.Marshal(map[string]any{"tenant": tenant, "priority": prio, "input": input})
				if err != nil {
					t.Fatal(err)
				}
				got, err := wire.AppendRequest([]byte("kept:"), tenant, monitor, input)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != "kept:"+string(want) {
					t.Fatalf("tenant %q monitor %v:\n got %s\nwant %s", tenant, monitor, got, want)
				}
			}
		}
	}
}

// jsonResponse is the 200 body as PR 9 declared it to encoding/json; the
// codec must go on emitting exactly what this struct marshals to.
type jsonResponse struct {
	Probs    [][]float64 `json:"probs"`
	Shard    string      `json:"shard"`
	Device   string      `json:"device"`
	Status   string      `json:"status"`
	Degraded bool        `json:"degraded"`
	Hedged   bool        `json:"hedged,omitempty"`
	Retried  bool        `json:"retried,omitempty"`
	Attempts int         `json:"attempts"`
	Cost     hwcost.Cost `json:"cost"`
}

func TestAppendResponseMatchesEncodingJSON(t *testing.T) {
	// every Cost field gets its own value, by reflection, so a field added to
	// the ledger without a spelling here fails this test
	var cost hwcost.Cost
	cv := reflect.ValueOf(&cost).Elem()
	for i := 0; i < cv.NumField(); i++ {
		cv.Field(i).SetUint(math.MaxUint64 - uint64(i)*977)
	}
	for _, flags := range []struct{ degraded, hedged, retried bool }{{}, {true, false, false}, {false, true, false}, {true, true, true}} {
		for _, name := range tenants {
			probs := tensor.FromSlice(append(awkward[:len(awkward):len(awkward)], 0.5), 4, 5)
			rows := make([][]float64, 4)
			for i := range rows {
				rows[i] = probs.Data()[i*5 : (i+1)*5]
			}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(jsonResponse{rows, name, name + "/dev", "HEALTHY",
				flags.degraded, flags.hedged, flags.retried, 2, cost}); err != nil {
				t.Fatal(err)
			}
			got, err := wire.AppendResponse(nil, &wire.Response{Probs: probs, Shard: name, Device: name + "/dev",
				Status: "HEALTHY", Degraded: flags.degraded, Hedged: flags.hedged, Retried: flags.retried, Attempts: 2, Cost: cost})
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != want.String() {
				t.Fatalf("%+v shard %q:\n got %s\nwant %s", flags, name, got, want.String())
			}
			// and the client's reader takes from it what encoding/json does;
			// every cost here is above 2^53, where a float would lose bits
			var back jsonResponse
			if err := json.Unmarshal(got, &back); err != nil {
				t.Fatal(err)
			}
			degraded, c, err := wire.ParseResponse(got)
			if err != nil || degraded != back.Degraded || c != back.Cost {
				t.Fatalf("%+v shard %q: ParseResponse = %v, %+v, %v; encoding/json says %v, %+v", flags, name, degraded, c, err, back.Degraded, back.Cost)
			}
		}
	}
}

func TestAppendRefusesNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := wire.AppendRequest(nil, "t", false, [][]float64{{0.5, v}}); err == nil {
			t.Fatalf("request carrying %v rendered", v)
		}
		if _, err := wire.AppendResponse(nil, &wire.Response{Probs: tensor.FromSlice([]float64{0.5, v}, 1, 2)}); err == nil {
			t.Fatalf("response carrying %v rendered", v)
		}
	}
}

func TestParseResponse(t *testing.T) {
	const cost = `{"computeCycles":1,"dacConversions":2,"adcConversions":3,"crossbarReads":4,"crossbarWrites":5,"energyFJ":18446744073709551615,"bufferBytes":7}`
	want := hwcost.Cost{ComputeCycles: 1, DACConversions: 2, ADCConversions: 3, CrossbarReads: 4, CrossbarWrites: 5, EnergyFJ: math.MaxUint64, BufferBytes: 7}
	for name, body := range map[string]string{
		"as netserve orders it":   `{"probs":[[0.25,0.75]],"shard":"s","device":"d","status":"DEGRADED","degraded":true,"attempts":1,"cost":` + cost + "}\n",
		"any order, unknown kept": ` { "cost" : ` + cost + ` , "trace":{"cost":{"energyFJ":9},"degraded":[false,1e40]}, "degraded" : true , "probs":[] } `,
		"the last one wins":       `{"degraded":false,"cost":{"energyFJ":9,"extra":[1.5,{}]},"cost":` + cost + `,"degraded":true}`,
	} {
		if degraded, got, err := wire.ParseResponse([]byte(body)); err != nil || !degraded || got != want {
			t.Errorf("%s: %v, %+v, %v", name, degraded, got, err)
		}
	}
	if degraded, got, err := wire.ParseResponse([]byte(`{}`)); err != nil || degraded || got != (hwcost.Cost{}) {
		t.Errorf("empty object: %v, %+v, %v", degraded, got, err)
	}
	for name, body := range map[string]string{
		"empty":               ``,
		"an array":            `[]`,
		"cut short":           `{"degraded":true,"cost":{"energyFJ":1`,
		"data after":          `{"degraded":true}{}`,
		"null flag":           `{"degraded":null}`,
		"truthy flag":         `{"degraded":1}`,
		"cost not an object":  `{"cost":7}`,
		"fractional cost":     `{"cost":{"energyFJ":1.0}}`,
		"exponent cost":       `{"cost":{"energyFJ":1e3}}`,
		"negative cost":       `{"cost":{"energyFJ":-1}}`,
		"quoted cost":         `{"cost":{"energyFJ":"1"}}`,
		"leading zero":        `{"cost":{"energyFJ":01}}`,
		"one past uint64":     `{"cost":{"energyFJ":18446744073709551616}}`,
		"bad skipped value":   `{"probs":[[0.5,]],"degraded":true}`,
		"bad number in probs": `{"probs":[[0.5,1.]],"degraded":true}`,
	} {
		if degraded, got, err := wire.ParseResponse([]byte(body)); !errors.Is(err, wire.ErrInvalid) || degraded || got != (hwcost.Cost{}) {
			t.Errorf("%s: %v, %+v, %v, want ErrInvalid", name, degraded, got, err)
		}
	}
}

func TestParseRequestRejects(t *testing.T) {
	for _, c := range wiretest.Rejects(lenetWidth, lenetRows) {
		req, err := wire.ParseRequest([]byte(c.Body), wire.NewBatch(lenetWidth), lenetRows)
		if !errors.Is(err, wire.ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid", c.Name, err)
		}
		if req.X != nil || req.Tenant != "" {
			t.Errorf("%s: a refused body still returned %+v", c.Name, req)
		}
		if err := wiretest.Recycles([]byte(c.Body), lenetWidth, lenetRows); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestParseRequestAccepts(t *testing.T) {
	for _, c := range wiretest.Accepts(lenetWidth, lenetRows) {
		req, err := wire.ParseRequest([]byte(c.Body), wire.NewBatch(lenetWidth), lenetRows)
		if err != nil {
			t.Errorf("%s: %v", c.Name, err)
			continue
		}
		if err := wiretest.AgreesWithJSON([]byte(c.Body), req); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
		if err := wiretest.Recycles([]byte(c.Body), lenetWidth, lenetRows); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
	// tenant presence is the tier's rule, not the codec's
	req, err := wire.ParseRequest([]byte(`{"input":`+wiretest.Rows(1, 3)+`}`), wire.NewBatch(3), 1)
	if err != nil || req.Tenant != "" || req.Monitor || req.X.Dim(0) != 1 {
		t.Fatalf("tenant-less body: %+v, %v", req, err)
	}
}

// TestParseRequestStopsAtTheFirstBadRow pins the streaming property: what
// follows the row that breaks the limit is never looked at.
func TestParseRequestStopsAtTheFirstBadRow(t *testing.T) {
	body := `{"tenant":"t","input":` + strings.TrimSuffix(wiretest.Rows(lenetRows+1, lenetWidth), "]") + `,[this is not JSON`
	_, err := wire.ParseRequest([]byte(body), wire.NewBatch(lenetWidth), lenetRows)
	if !errors.Is(err, wire.ErrInvalid) || !strings.Contains(err.Error(), "more than 8 rows") {
		t.Fatalf("err = %v, want the row limit", err)
	}
	// a few bytes promising a huge batch must not size a huge tensor
	tiny := []byte(`{"input":[[` + strings.Repeat("]", 64))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		if _, err := wire.ParseRequest(tiny, wire.NewBatch(lenetWidth), 64); !errors.Is(err, wire.ErrInvalid) {
			t.Fatalf("err = %v, want ErrInvalid", err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / 100; per > 16<<10 {
		t.Fatalf("a %d-byte body allocated %d bytes", len(tiny), per)
	}
}

func TestRoundTrip(t *testing.T) {
	input := [][]float64{awkward, awkward}
	for _, tenant := range tenants {
		body, err := wire.AppendRequest(nil, tenant, true, input)
		if err != nil {
			t.Fatal(err)
		}
		req, err := wire.ParseRequest(body, wire.NewBatch(len(awkward)), 2)
		if err != nil {
			t.Fatalf("tenant %q: own rendering refused: %v", tenant, err)
		}
		if err := wiretest.Recycles(body, len(awkward), 2); err != nil {
			t.Fatalf("tenant %q: %v", tenant, err)
		}
		// encoding/json's rule: each invalid byte becomes one U+FFFD
		if want := string([]rune(tenant)); req.Tenant != want {
			t.Fatalf("tenant %q came back %q, want %q", tenant, req.Tenant, want)
		}
		if !req.Monitor {
			t.Fatal("priority lost")
		}
		for i, v := range req.X.Data() {
			if math.Float64bits(v) != math.Float64bits(awkward[i%len(awkward)]) {
				t.Fatalf("value %d: %v came back %v", i, awkward[i%len(awkward)], v)
			}
		}
	}
}

func TestReadBody(t *testing.T) {
	payload := strings.Repeat("x", 100_000)
	for _, size := range []int64{-1, 0, 10, int64(len(payload))} {
		// iotest-style one byte short reads would be slow here; a reader
		// without WriteTo is enough to go through the Read loop
		buf, err := wire.ReadBody(struct{ io.Reader }{strings.NewReader(payload)}, size)
		if err != nil {
			t.Fatalf("declared %d: %v", size, err)
		}
		if string(buf.B) != payload {
			t.Fatalf("declared %d: read %d bytes, want %d", size, len(buf.B), len(payload))
		}
		buf.Release()
	}
	exact := strings.Repeat(" ", wire.MaxBody)
	buf, err := wire.ReadBody(strings.NewReader(exact), -1)
	if err != nil || len(buf.B) != wire.MaxBody {
		t.Fatalf("a body of exactly MaxBody: %v", err)
	}
	buf.Release()
	for _, size := range []int64{-1, wire.MaxBody + 1} {
		if _, err := wire.ReadBody(strings.NewReader(exact+" "), size); !errors.Is(err, wire.ErrInvalid) {
			t.Fatalf("MaxBody+1 bytes declared %d: err = %v, want ErrInvalid", size, err)
		}
	}
	if _, err := wire.ReadBody(io.MultiReader(strings.NewReader("{"), errReader{}), -1); !errors.Is(err, wire.ErrInvalid) {
		t.Fatalf("failing reader: err = %v, want ErrInvalid", err)
	}
}

type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, errors.New("connection reset") }

// batch is a deterministic rows x width input of full-precision values.
func batch(rows, width int) [][]float64 {
	input := make([][]float64, rows)
	v := 0.0
	for r := range input {
		input[r] = make([]float64, width)
		for c := range input[r] {
			v += 0.6180339887498949
			input[r][c] = v - math.Floor(v)
		}
	}
	return input
}

func TestAllocations(t *testing.T) {
	// the benchmark's lenet5_batch request
	input := batch(lenetRows, lenetWidth)
	body, err := wire.AppendRequest(nil, "tenant-07", false, input)
	if err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun's warm-up decode sizes the batch and learns the tenant
	dst := wire.NewBatch(lenetWidth)
	if n := testing.AllocsPerRun(50, func() {
		if _, err := wire.ParseRequest(body, dst, lenetRows); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("decoding an 8x784 body into a recycled batch: %v allocations, want 0", n)
	}
	buf := make([]byte, 0, 2*len(body))
	if n := testing.AllocsPerRun(50, func() {
		if _, err := wire.AppendRequest(buf, "tenant-07", false, input); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("rendering a request into a warm buffer: %v allocations, want 0", n)
	}
	resp := &wire.Response{Probs: tensor.FromSlice(input[0][:80], 8, 10), Shard: "shard-0", Device: "shard-0/dev-1", Status: "HEALTHY", Attempts: 1}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := wire.AppendResponse(buf, resp); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("rendering a response into a warm buffer: %v allocations, want 0", n)
	}
	rendered, _ := wire.AppendResponse(nil, resp)
	if n := testing.AllocsPerRun(50, func() {
		if _, _, err := wire.ParseResponse(rendered); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("reading a response: %v allocations, want 0", n)
	}
}

var sink int

// benchInputs are the number distributions the codec benchmarks run over, so
// the kernels are not tuned on one: full-precision fractions (16-17 digits,
// the bench's lenet5_batch and mlp_rpc bodies), MNIST-shaped pixels (four in
// five are 0, the rest k/255), magnitudes from 1e-9 to 1e24 with either sign
// (both notations, Clinger's path and Eisel-Lemire's) and values of at most
// six digits.
var benchInputs = []struct {
	name  string
	input func() [][]float64
}{
	{"lenet5_8x784", func() [][]float64 { return batch(lenetRows, lenetWidth) }},
	{"mlp_1x16", func() [][]float64 { return batch(1, 16) }},
	{"pixels_k_over_255", func() [][]float64 {
		return fill(func(r *rand.Rand) float64 {
			if r.Intn(5) != 0 {
				return 0
			}
			return float64(r.Intn(256)) / 255
		})
	}},
	{"mixed_exponent", func() [][]float64 {
		return fill(func(r *rand.Rand) float64 {
			v := (1 + 9*r.Float64()) * math.Pow(10, float64(r.Intn(34)-9))
			if r.Intn(4) == 0 {
				v = math.Round(v) // whole numbers, short ones below 1e15
			}
			return math.Copysign(v, float64(r.Intn(2))-0.5)
		})
	}},
	{"short", func() [][]float64 {
		return fill(func(r *rand.Rand) float64 {
			return float64(r.Intn(1e6)) / math.Pow(10, float64(r.Intn(7)))
		})
	}},
}

// fill draws a LeNet-5-sized batch from gen, the same one every time.
func fill(gen func(*rand.Rand) float64) [][]float64 {
	r := rand.New(rand.NewSource(1))
	input := make([][]float64, lenetRows)
	for i := range input {
		input[i] = make([]float64, lenetWidth)
		for j := range input[i] {
			input[i][j] = gen(r)
		}
	}
	return input
}

// perNumber reports the benchmark's time per number next to its MB/s.
func perNumber(b *testing.B, input [][]float64) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(input)*len(input[0])), "ns/number")
}

func BenchmarkWireDecode(b *testing.B) {
	for _, arm := range benchInputs {
		b.Run(arm.name, func(b *testing.B) {
			input := arm.input()
			body, err := wire.AppendRequest(nil, "tenant-07", false, input)
			if err != nil {
				b.Fatal(err)
			}
			dst := wire.NewBatch(len(input[0]))
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req, err := wire.ParseRequest(body, dst, len(input))
				if err != nil {
					b.Fatal(err)
				}
				sink += req.X.Len()
			}
			perNumber(b, input)
		})
	}
}

func BenchmarkWireAppendRequest(b *testing.B) {
	for _, arm := range benchInputs {
		b.Run(arm.name, func(b *testing.B) {
			input := arm.input()
			var buf []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = wire.AppendRequest(buf[:0], "tenant-07", false, input); err != nil {
					b.Fatal(err)
				}
				sink += len(buf)
			}
			b.SetBytes(int64(len(buf)))
			perNumber(b, input)
		})
	}
}
