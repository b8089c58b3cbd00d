package netserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reramtest/internal/fleet"
	"reramtest/internal/models"
	"reramtest/internal/monitor"
	"reramtest/internal/rng"
	"reramtest/internal/serve"
	"reramtest/internal/tensor"
	"reramtest/internal/testgen"
	"reramtest/internal/wire"
	"reramtest/internal/wire/wiretest"
)

// httpTier wraps a small frontend in a live test server.
func httpTier(t *testing.T, cfg Config) (*Frontend, [][]*tierDevice, *httptest.Server) {
	t.Helper()
	f, devs := newTier(t, 2, 1, cfg)
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(func() { ts.Close(); f.Close() })
	return f, devs, ts
}

func postInfer(t *testing.T, ts *httptest.Server, body string, hdr map[string]string) (*http.Response, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/infer", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatalf("undecodable response body: %v", err)
	}
	return resp, decoded
}

func inferBody(tenant string, rows, width int) string {
	row := make([]float64, width)
	for i := range row {
		row[i] = 0.25
	}
	input := make([][]float64, rows)
	for i := range input {
		input[i] = row
	}
	b, _ := json.Marshal(map[string]any{"tenant": tenant, "input": input})
	return string(b)
}

func TestHTTPHappyPath(t *testing.T) {
	f, devs, ts := httpTier(t, Config{})
	resp, body := postInfer(t, ts, inferBody("alice", 2, 16), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %v", resp.StatusCode, body)
	}
	probs, ok := body["probs"].([]any)
	if !ok || len(probs) != 2 {
		t.Fatalf("bad probs in %v", body)
	}
	if body["shard"] == "" || body["device"] == "" {
		t.Fatalf("response names no placement: %v", body)
	}
	checkAnswerHeaders(t, resp, body)
	if body["status"] != "HEALTHY" {
		t.Fatalf("status %v, want HEALTHY", body["status"])
	}

	// drift between DegradedAt and ImpairedAt: the devices keep serving, and
	// every answer says so
	for _, row := range devs {
		row[0].set(func(d *tierDevice) { d.shift = 0.04 })
	}
	f.Tick()
	f.Tick() // EscalateAfter=2 rounds to confirm
	resp, body = postInfer(t, ts, inferBody("alice", 1, 16), nil)
	if resp.StatusCode != http.StatusOK || body["degraded"] != true {
		t.Fatalf("status %d, body %v: want a 200 flagged degraded", resp.StatusCode, body)
	}
	checkAnswerHeaders(t, resp, body)
}

// checkAnswerHeaders holds a 200's headers to its body: X-Served-By names the
// body's shard/device exactly, and X-Degraded is there exactly when the
// answer is degraded.
func checkAnswerHeaders(t *testing.T, resp *http.Response, body map[string]any) {
	t.Helper()
	if got, want := resp.Header.Get("Content-Type"), "application/json"; got != want {
		t.Fatalf("Content-Type %q, want %q", got, want)
	}
	if got, want := resp.Header.Get("X-Served-By"), fmt.Sprintf("%v/%v", body["shard"], body["device"]); got != want {
		t.Fatalf("X-Served-By %q, want %q", got, want)
	}
	degraded := body["degraded"] == true
	if got := resp.Header.Values("X-Degraded"); degraded && (len(got) != 1 || got[0] != "true") || !degraded && len(got) != 0 {
		t.Fatalf("X-Degraded %q on an answer with degraded=%v", got, degraded)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	_, _, ts := httpTier(t, Config{MaxRows: 4, Quota: QuotaConfig{Rate: 0.001, Burst: 2}})

	// 400: bad JSON, bad width, oversized batch, bad priority, bad deadline
	for i, c := range []struct {
		body string
		hdr  map[string]string
	}{
		{"{not json", nil},
		{inferBody("t", 1, 7), nil},
		{inferBody("t", 5, 16), nil},
		{`{"tenant":"t","priority":"turbo","input":[[1]]}`, nil},
		{inferBody("t", 1, 16), map[string]string{DeadlineHeader: "soon"}},
		{inferBody("t", 1, 16), map[string]string{DeadlineHeader: "-5"}},
	} {
		resp, body := postInfer(t, ts, c.body, c.hdr)
		if resp.StatusCode != http.StatusBadRequest || body["error"] != "invalid" {
			t.Fatalf("case %d: status %d error %v, want 400 invalid", i, resp.StatusCode, body["error"])
		}
	}

	// 429 quota after the burst is gone, with Retry-After
	for i := 0; i < 2; i++ {
		if resp, body := postInfer(t, ts, inferBody("q", 1, 16), nil); resp.StatusCode != 200 {
			t.Fatalf("in-quota request %d: %d %v", i, resp.StatusCode, body)
		}
	}
	resp, body := postInfer(t, ts, inferBody("q", 1, 16), nil)
	if resp.StatusCode != http.StatusTooManyRequests || body["error"] != "quota" {
		t.Fatalf("over-quota: status %d error %v, want 429 quota", resp.StatusCode, body["error"])
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// 405-equivalent: GET on /v1/infer is invalid
	getResp, err := ts.Client().Get(ts.URL + "/v1/infer")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET /v1/infer = %d", getResp.StatusCode)
	}
}

func TestHTTPDeadlinePropagation(t *testing.T) {
	_, devs, ts := httpTier(t, Config{})
	for _, row := range devs {
		row[0].set(func(d *tierDevice) { d.delay = 300 * time.Millisecond })
	}
	start := time.Now()
	resp, body := postInfer(t, ts, inferBody("t", 1, 16), map[string]string{DeadlineHeader: "25"})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout || body["error"] != "deadline" {
		t.Fatalf("status %d error %v, want 504 deadline", resp.StatusCode, body["error"])
	}
	if elapsed > 250*time.Millisecond {
		t.Fatalf("504 took %v — the header deadline did not propagate", elapsed)
	}
}

// TestHTTPDeadlineClampsBeforeConverting: a header far past MaxDeadline must
// behave exactly like MaxDeadline. Converting to a Duration before clamping
// wrapped these negative, and a healthy tier answered 504 at once.
func TestHTTPDeadlineClampsBeforeConverting(t *testing.T) {
	f, _, ts := httpTier(t, Config{MaxDeadline: 5 * time.Second})
	for _, ms := range []string{"5000", "5001", "10000000000000", strconv.FormatInt(math.MaxInt64, 10)} {
		resp, body := postInfer(t, ts, inferBody("t", 1, 16), map[string]string{DeadlineHeader: ms})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s = %d %v, want 200 off a fast device", DeadlineHeader, ms, resp.StatusCode, body["error"])
		}
	}
	// one past int64 is not a number the header can carry
	resp, body := postInfer(t, ts, inferBody("t", 1, 16), map[string]string{DeadlineHeader: "9223372036854775808"})
	if resp.StatusCode != http.StatusBadRequest || body["error"] != "invalid" {
		t.Fatalf("overflowing header: %d %v, want 400 invalid", resp.StatusCode, body["error"])
	}
	if st := f.Stats(); st.Deadlines != 0 || st.Completed != 4 || st.Invalid != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestHTTPFaultedShardMaps502: a fault that outlasts the retry budget maps to
// 502, after exactly RetryMax cross-shard retries — none at RetryMax 0, one
// at RetryMax 1 with every shard faulted.
func TestHTTPFaultedShardMaps502(t *testing.T) {
	for _, tc := range []struct {
		retryMax int
		crashed  []int // shards whose device crashes
	}{
		{0, []int{0}},
		{1, []int{0, 1}},
	} {
		t.Run(fmt.Sprintf("RetryMax=%d", tc.retryMax), func(t *testing.T) {
			f, devs, ts := httpTier(t, Config{RetryMax: tc.retryMax})
			tenant := tenantFor(t, f, "shard-0")
			for _, s := range tc.crashed {
				devs[s][0].set(func(d *tierDevice) { d.crash = true })
			}
			resp, body := postInfer(t, ts, inferBody(tenant, 1, 16), nil)
			if resp.StatusCode != http.StatusBadGateway || body["error"] != "faulted" {
				t.Fatalf("status %d error %v, want 502 faulted", resp.StatusCode, body["error"])
			}
			if st := f.Stats(); st.Retries != uint64(tc.retryMax) {
				t.Fatalf("%d retries, want %d: %+v", st.Retries, tc.retryMax, st)
			}
		})
	}
}

func TestHTTPHealthzAndStats(t *testing.T) {
	f, _, ts := httpTier(t, Config{})
	if _, err := f.Do(context.Background(), Request{Tenant: "t", X: tierBatch(1)}); err != nil {
		t.Fatal(err)
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Closed bool `json:"closed"`
		Shards []struct {
			Name     string   `json:"name"`
			Draining bool     `json:"draining"`
			Serving  []string `json:"serving"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(health.Shards) != 2 {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, health)
	}

	resp, err = ts.Client().Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var statsz struct {
		Stats Stats `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&statsz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st := statsz.Stats; st.Completed != 1 || st.Admitted != st.Terminal() {
		t.Fatalf("stats over the wire: %+v", st)
	}

	// the counters have one endpoint: /statsz's stats member
	resp, err = ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/stats = %d, want 404", resp.StatusCode)
	}

	// numeric precision is private to engine.Compile: neither telemetry
	// document labels a shard with one ("precision" / "precisions")
	for _, path := range []string{"/v1/healthz", "/statsz"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %v", path, resp.StatusCode, err)
		}
		if bytes.Contains(raw, []byte("precision")) {
			t.Fatalf("%s still emits a precision field: %s", path, raw)
		}
	}

	// drain everything: healthz flips to 503
	f.DrainShard("shard-0")
	f.DrainShard("shard-1")
	resp, err = ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with every shard draining = %d, want 503", resp.StatusCode)
	}
}

// serveInfer drives the handler directly, without a socket.
func serveInfer(h http.Handler, body io.Reader, deadline string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/infer", body)
	if deadline != "" {
		req.Header.Set(DeadlineHeader, deadline)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestHTTPWireConformance runs the codec's tables through the handler: every
// refused body is a typed 400 counted Invalid, every accepted one a 200, and
// the admission identity stays exact.
func TestHTTPWireConformance(t *testing.T) {
	const width, maxRows = 16, 4
	f, _ := newTier(t, 2, 1, Config{MaxRows: maxRows})
	defer f.Close()

	h := f.Handler()
	rejects := wiretest.Rejects(width, maxRows)
	padded := `{"tenant":"t","input":` + wiretest.Rows(1, width) + strings.Repeat(" ", wire.MaxBody) + `}`
	rejects = append(rejects,
		wiretest.Case{Name: "body over the 4 MiB cap", Body: padded},
		wiretest.Case{Name: "no tenant", Body: `{"input":` + wiretest.Rows(1, width) + `}`})
	for _, c := range rejects {
		rec := serveInfer(h, strings.NewReader(c.Body), "")
		var e errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s: undecodable error body %q", c.Name, rec.Body.String())
		}
		if rec.Code != http.StatusBadRequest || e.Error != "invalid" {
			t.Errorf("%s: %d %q (%s), want 400 invalid", c.Name, rec.Code, e.Error, e.Message)
		}
	}
	// the cap also holds when the length is not declared up front
	if rec := serveInfer(h, struct{ io.Reader }{strings.NewReader(padded)}, ""); rec.Code != http.StatusBadRequest {
		t.Errorf("undeclared oversized body: %d, want 400", rec.Code)
	}

	accepts := wiretest.Accepts(width, maxRows)
	for _, c := range accepts {
		if rec := serveInfer(h, strings.NewReader(c.Body), ""); rec.Code != http.StatusOK {
			t.Errorf("%s: %d %s, want 200", c.Name, rec.Code, rec.Body.String())
		}
	}

	st := f.Stats()
	if st.Received != st.Invalid+st.QuotaRejected+st.ClosedRejected+st.Admitted || st.Admitted != st.Terminal() {
		t.Fatalf("accounting broken: %+v", st)
	}
	if want := uint64(len(rejects) + 1); st.Invalid != want {
		t.Errorf("Invalid = %d, want %d", st.Invalid, want)
	}
	if want := uint64(len(accepts)); st.Completed != want {
		t.Errorf("Completed = %d, want %d", st.Completed, want)
	}
}

// TestHedgedAnswersStayBitIdentical guards the codec's ownership rule. With
// one slow device and a 1 ms hedge, the slow attempt is abandoned and reads
// its input after the handler has answered and put its decode batch back in
// the pool: unless serve reads its own copy, the race detector (or a wrong
// answer) fails this test.
func TestHedgedAnswersStayBitIdentical(t *testing.T) {
	f, devs := newTierServe(t, 1, 2, Config{}, serve.Config{Workers: 4, HedgeAfter: time.Millisecond})
	ts := httptest.NewServer(f.Handler())
	defer func() { ts.Close(); f.Close() }()
	devs[0][0].set(func(d *tierDevice) { d.delay = 5 * time.Millisecond })

	const clients, perClient = 4, 12
	ref := models.MLP(rng.New(1), 16, []int{12}, 5) // newTier's reference model
	bodies := make([][]byte, clients*perClient)
	want := make([]*tensor.Tensor, len(bodies))
	r := rng.New(11)
	for i := range bodies {
		x := tensor.RandUniform(r, 0, 1, 2, 16)
		want[i] = probsOf(ref, x)
		var err error
		bodies[i], err = wire.AppendRequest(nil, "t", false, [][]float64{x.Data()[:16], x.Data()[16:]})
		if err != nil {
			t.Fatal(err)
		}
	}

	var hedged atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c * perClient; i < (c+1)*perClient; i++ {
				resp, err := ts.Client().Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(bodies[i]))
				if err != nil {
					t.Error(err)
					return
				}
				var got struct {
					Probs  [][]float64 `json:"probs"`
					Hedged bool        `json:"hedged"`
				}
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || len(got.Probs) != 2 {
					t.Errorf("request %d: status %d, %v", i, resp.StatusCode, err)
					return
				}
				if got.Hedged {
					hedged.Add(1)
				}
				for r, row := range got.Probs {
					for k, v := range row {
						if w := want[i].Data()[r*5+k]; math.Float64bits(v) != math.Float64bits(w) {
							t.Errorf("request %d probs[%d][%d] = %v, reference says %v", i, r, k, v, w)
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if hedged.Load() == 0 {
		t.Fatal("no request was hedged: the test exercised nothing")
	}
}

// TestRecycledStateAnswersItsOwnInput is the ownership stress test of the
// recycled request path: netserve's decode batches and serve's request
// records go back to their pools while attempts a hedge or a deadline
// abandoned may still run. Concurrent callers send inputs that all differ
// through the handler; shard-0's devices are slow (3 and 2 ms) against a
// shorter HedgeAfter, so hedge losers are abandoned; shard-1 crashes on a
// quarter of the inputs, so those retry across shards; and one request in
// four carries a deadline shorter than either readout, so on shard-0 it
// expires mid-attempt whichever attempt runs. Every 200 must
// be, bit for bit, the reference engine's answer for that request's own
// input: a late reader of a recycled buffer, or a result left behind in a
// recycled record, answers with another request's numbers.
func TestRecycledStateAnswersItsOwnInput(t *testing.T) {
	const width, rows, clients, perClient = 16, 2, 8, 40
	fcfg := tierFleetConfig()
	fcfg.BreakerOpenAfter = 1 << 30 // crashes must not quarantine shard-1, or nothing retries
	ref := models.MLP(rng.New(1), width, []int{12}, 5)
	specs := make([]ShardSpec, 2)
	devs := make([][]*tierDevice, 2)
	for s := range specs {
		wrapped := make([]fleet.Device, 2)
		devs[s] = make([]*tierDevice, 2)
		for i := range wrapped {
			devs[s][i] = &tierDevice{id: fmt.Sprintf("s%d-dev%d", s, i), net: ref.Clone(), patterns: tierPatterns()}
			wrapped[i] = devs[s][i]
		}
		specs[s] = ShardSpec{Name: fmt.Sprintf("shard-%d", s), Devices: wrapped, Fleet: fcfg,
			Serve: serve.Config{Workers: 4, HedgeAfter: 500 * time.Microsecond}}
	}
	f, err := New(specs, Config{RetryMax: 1, RetryBackoff: time.Microsecond, MaxRows: rows})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	devs[0][0].set(func(d *tierDevice) { d.delay = 3 * time.Millisecond })
	devs[0][1].set(func(d *tierDevice) { d.delay = 2 * time.Millisecond })
	for _, d := range devs[1] {
		d.set(func(d *tierDevice) { d.crashBelow = 0.25 })
	}

	bodies := make([][]byte, clients*perClient)
	want := make([]*tensor.Tensor, len(bodies))
	r := rng.New(13)
	for i := range bodies {
		x := tensor.RandUniform(r, 0, 1, rows, width)
		want[i] = probsOf(ref, x)
		bodies[i], err = wire.AppendRequest(nil, fmt.Sprintf("tenant-%d", i%16), false, [][]float64{x.Data()[:width], x.Data()[width:]})
		if err != nil {
			t.Fatal(err)
		}
	}

	h := f.Handler()
	var ok atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(bodies); i += clients {
				deadline, tight := "2000", i%4 == 0
				if tight {
					deadline = "1"
				}
				rec := serveInfer(h, bytes.NewReader(bodies[i]), deadline)
				// a tight deadline may also expire before a crash is retried
				if tight && (rec.Code == http.StatusGatewayTimeout || rec.Code == http.StatusBadGateway) {
					continue
				}
				var got struct {
					Probs [][]float64 `json:"probs"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || rec.Code != http.StatusOK || len(got.Probs) != rows {
					t.Errorf("request %d: %d %s", i, rec.Code, rec.Body.String())
					continue
				}
				ok.Add(1)
				for r, row := range got.Probs {
					for k, v := range row {
						if w := want[i].Data()[r*5+k]; math.Float64bits(v) != math.Float64bits(w) {
							t.Errorf("request %d probs[%d][%d] = %v, its own input's answer is %v", i, r, k, v, w)
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()

	st := f.Stats()
	var hedges uint64
	for _, sh := range f.shards {
		hedges += sh.srv.Stats().Hedges
	}
	if ok.Load() == 0 || hedges == 0 || st.Retries == 0 || st.Deadlines == 0 {
		t.Fatalf("a path went unexercised: %d ok, %d hedges, %+v", ok.Load(), hedges, st)
	}
	if st.Admitted != st.Terminal() {
		t.Fatalf("accounting broken: %+v", st)
	}
}

// fixedDevice answers every batch with the same confidences, so what a
// request allocates is the tier's own.
type fixedDevice struct {
	*tierDevice
	infer monitor.Infer
}

func (d fixedDevice) Infer() monitor.Infer { return d.infer }

// discardWriter is an in-memory ResponseWriter that keeps one header map.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// rewindBody is a request body the test rewinds between runs.
type rewindBody struct{ *bytes.Reader }

func (rewindBody) Close() error { return nil }

// TestInferHandlerAllocations pins what the /v1/infer handler allocates per
// request in steady state on the LeNet-5 shape, an 8-row 784-wide body: the
// answer copied out of the device (3) and the Done channel of the request's
// context (1), and nothing of the decoded batch, its tenant name, the
// serving record, its deadline timer or the body and answer buffers, which
// are all recycled (21 allocations before they were, 8 while the handler
// derived a deadline context). As net/http does, each request carries a
// cancelable context of its own, made outside the count.
func TestInferHandlerAllocations(t *testing.T) {
	if raceBuild {
		t.Skip("allocation ceilings do not hold under the race detector")
	}
	const width, rows = 784, 8
	out := tensor.FromSlice(make([]float64, rows*10), rows, 10)
	out.Apply(func(float64) float64 { return 0.1 })
	dev := fixedDevice{
		tierDevice: &tierDevice{id: "dev-0", net: models.MLP(rng.New(1), width, []int{12}, 10), patterns: &testgen.PatternSet{
			Name: "wide", Method: "plain", X: tensor.RandUniform(rng.New(2), 0, 1, rows, width), Labels: make([]int, rows)}},
		infer: func(*tensor.Tensor) *tensor.Tensor { return out },
	}
	f, err := New([]ShardSpec{{Name: "shard-0", Devices: []fleet.Device{dev}, Fleet: tierFleetConfig(),
		Serve: serve.Config{Workers: 1, HedgeAfter: time.Hour}}}, Config{MaxRows: rows})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	input := make([][]float64, rows)
	r := rng.New(3)
	for i := range input {
		input[i] = tensor.RandUniform(r, 0, 1, 1, width).Data()
	}
	body, err := wire.AppendRequest(nil, "tenant-07", false, input)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/infer", nil)
	req.Header.Set(DeadlineHeader, "2000")
	req.ContentLength = int64(len(body))
	rd := rewindBody{bytes.NewReader(body)}
	req.Body = rd
	const warm, runs = 100, 1000
	reqs := make([]*http.Request, warm+1+runs) // AllocsPerRun warms up once
	for i := range reqs {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		reqs[i] = req.WithContext(ctx)
	}
	w := &discardWriter{h: http.Header{}}
	next := 0
	serve1 := func() {
		rd.Reset(body)
		w.code = http.StatusOK
		f.handleInfer(w, reqs[next])
		next++
		if w.code != http.StatusOK {
			t.Fatalf("status %d", w.code)
		}
	}
	for i := 0; i < warm; i++ {
		serve1()
	}
	if n := testing.AllocsPerRun(runs, serve1); n > 4 {
		t.Fatalf("handler: %v allocations per request, want <= 4", n)
	}
}
