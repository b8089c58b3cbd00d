package loadgen

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{
		Requests: 200, InDim: 4, Concurrency: 8, StormEvery: 3,
		Tenants: []TenantSpec{
			{Name: "a", Weight: 3, MaxRows: 2, MonitorP: 0.2},
			{Name: "b", Weight: 1, MaxRows: 4},
		},
	}
	r1, err := Generate(42, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := Generate(42, cfg)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("same seed produced different schedules")
	}
	r3, _ := Generate(43, cfg)
	if reflect.DeepEqual(r1, r3) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestGenerateMixAndStorms(t *testing.T) {
	cfg := Config{
		Requests: 4000, InDim: 3, Concurrency: 10, StormEvery: 4, StormDeadlineMs: 2,
		DeadlineMs: 500,
		Tenants: []TenantSpec{
			{Name: "heavy", Weight: 3},
			{Name: "light", Weight: 1},
		},
	}
	reqs, err := Generate(7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	byTenant := map[string]int{}
	storms := 0
	for _, q := range reqs {
		byTenant[q.Tenant]++
		if q.Storm {
			storms++
			if q.DeadlineMs != 2 {
				t.Fatalf("storm request carries deadline %d, want 2", q.DeadlineMs)
			}
		} else if q.DeadlineMs != 500 {
			t.Fatalf("ordinary request carries deadline %d, want 500", q.DeadlineMs)
		}
		if len(q.Input) < 1 || len(q.Input[0]) != 3 {
			t.Fatalf("bad input shape %dx%d", len(q.Input), len(q.Input[0]))
		}
	}
	// 3:1 weights → heavy should land near 75% of 4000
	if byTenant["heavy"] < 2700 || byTenant["heavy"] > 3300 {
		t.Fatalf("heavy got %d of 4000, want ~3000", byTenant["heavy"])
	}
	// every 4th wave of 10 storms → ~1000 storm requests
	if storms < 900 || storms > 1100 {
		t.Fatalf("%d storm requests, want ~1000", storms)
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(1, Config{Requests: 0, InDim: 4}); err == nil {
		t.Fatal("Requests=0 accepted")
	}
	if _, err := Generate(1, Config{Requests: 10, InDim: 0}); err == nil {
		t.Fatal("InDim=0 accepted")
	}
}

// scriptTarget classifies requests by a fixed rule, counting calls.
type scriptTarget struct {
	mu    sync.Mutex
	calls int
	fn    func(req Request) Outcome
}

func (s *scriptTarget) Serve(_ context.Context, req Request) Outcome {
	s.mu.Lock()
	s.calls++
	s.mu.Unlock()
	return s.fn(req)
}

func TestRunAccountsEveryRequest(t *testing.T) {
	tgt := &scriptTarget{fn: func(req Request) Outcome {
		if req.Storm {
			return Outcome{Kind: "deadline", Code: 504}
		}
		return Outcome{Kind: "ok", Code: 200, Degraded: req.Monitor}
	}}
	cfg := Config{Requests: 500, InDim: 2, Concurrency: 25, StormEvery: 5,
		Tenants: []TenantSpec{{Name: "t", MonitorP: 0.5}}}
	rep, err := Run(context.Background(), 11, tgt, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent != 500 || tgt.calls != 500 {
		t.Fatalf("sent %d, target saw %d, want 500", rep.Sent, tgt.calls)
	}
	total := 0
	for _, n := range rep.ByKind {
		total += n
	}
	if total != rep.Sent {
		t.Fatalf("ByKind sums to %d, Sent %d — a request fell out of accounting", total, rep.Sent)
	}
	if rep.OK+rep.ByKind["deadline"] != 500 {
		t.Fatalf("ok %d + deadline %d != 500", rep.OK, rep.ByKind["deadline"])
	}
	if rep.Untyped != 0 {
		t.Fatalf("untyped %d on a fully-typed target", rep.Untyped)
	}
	if rep.Degraded == 0 {
		t.Fatal("MonitorP=0.5 produced zero degraded outcomes")
	}
	if rep.Storms == 0 || len(rep.Latencies) != rep.Sent-rep.ByKind["deadline"] {
		t.Fatalf("storms %d, latencies %d — storm waves must not pollute latency samples",
			rep.Storms, len(rep.Latencies))
	}
}

func TestRunFlagsUntypedOutcomes(t *testing.T) {
	tgt := &scriptTarget{fn: func(Request) Outcome { return Outcome{Kind: "gremlin", Code: 500} }}
	rep, err := Run(context.Background(), 1, tgt, Config{Requests: 10, InDim: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Untyped != 10 {
		t.Fatalf("untyped %d, want 10", rep.Untyped)
	}
}

// TestRunCountsAnUnnamedOutcomeAsTransport: a target that names no kind
// failed to reach the tier; and a schedule that cannot be generated is
// refused before anything is sent.
func TestRunCountsAnUnnamedOutcomeAsTransport(t *testing.T) {
	tgt := &scriptTarget{fn: func(Request) Outcome { return Outcome{} }}
	rep, err := Run(context.Background(), 1, tgt, Config{Requests: 10, InDim: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Transport != 10 || rep.Untyped != 0 {
		t.Fatalf("transport %d untyped %d, want 10 and 0", rep.Transport, rep.Untyped)
	}
	if _, err := Run(context.Background(), 1, tgt, Config{Requests: 10, InDim: 2, Concurrency: -1}, nil); err == nil {
		t.Fatal("negative concurrency accepted")
	}
}

func TestRunProgressHook(t *testing.T) {
	tgt := &scriptTarget{fn: func(Request) Outcome { return Outcome{Kind: "ok", Code: 200} }}
	var marks []int
	_, err := Run(context.Background(), 2, tgt, Config{Requests: 30, InDim: 2, Concurrency: 10},
		func(done int) { marks = append(marks, done) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(marks, []int{10, 20, 30}) {
		t.Fatalf("progress marks %v, want [10 20 30]", marks)
	}
}

func TestRunHonorsContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tgt := &scriptTarget{fn: func(Request) Outcome { return Outcome{Kind: "ok"} }}
	if _, err := Run(ctx, 3, tgt, Config{Requests: 100, InDim: 2}, nil); err == nil {
		t.Fatal("cancelled context did not stop the campaign")
	}
}

func TestHTTPTargetClassifiesWire(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/infer", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Tenant string `json:"tenant"`
		}
		json.NewDecoder(r.Body).Decode(&body)
		switch body.Tenant {
		case "ok":
			json.NewEncoder(w).Encode(map[string]any{"probs": [][]float64{{1}}, "degraded": true})
		case "quota":
			w.WriteHeader(429)
			json.NewEncoder(w).Encode(map[string]string{"error": "quota"})
		case "slow":
			time.Sleep(2 * time.Second)
		default:
			w.WriteHeader(500) // no JSON body at all
		}
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	tgt := NewHTTPTarget(ts.URL, ts.Client())
	defer tgt.CloseIdle()

	ctx := context.Background()
	if out := tgt.Serve(ctx, Request{Tenant: "ok", DeadlineMs: 1000}); out.Kind != "ok" || !out.Degraded {
		t.Fatalf("ok case: %+v", out)
	}
	if out := tgt.Serve(ctx, Request{Tenant: "quota", DeadlineMs: 1000}); out.Kind != "quota" || out.Code != 429 {
		t.Fatalf("quota case: %+v", out)
	}
	if out := tgt.Serve(ctx, Request{Tenant: "none", DeadlineMs: 1000}); out.Kind != "http_500" {
		t.Fatalf("bodyless 500: %+v", out)
	}
	sctx, scancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer scancel()
	if out := tgt.Serve(sctx, Request{Tenant: "slow", DeadlineMs: 10}); out.Kind != "hung" {
		t.Fatalf("expired transport: %+v", out)
	}
}

func TestReportPercentiles(t *testing.T) {
	r := Report{}
	for i := 1; i <= 100; i++ {
		r.Latencies = append(r.Latencies, time.Duration(i)*time.Millisecond)
	}
	if p := r.P(0.50); p < 50*time.Millisecond || p > 52*time.Millisecond {
		t.Fatalf("p50 = %v", p)
	}
	if p := r.P(0.99); p < 99*time.Millisecond {
		t.Fatalf("p99 = %v", p)
	}
	if (Report{}).P(0.99) != 0 {
		t.Fatal("empty report p99 != 0")
	}
	if p := r.P(1); p != 100*time.Millisecond {
		t.Fatalf("p100 = %v", p)
	}
}

// TestReportString: the summary cmd/loadgen prints names every count, every
// outcome kind in order, and the percentiles.
func TestReportString(t *testing.T) {
	r := Report{Sent: 3, OK: 2, Hung: 1, ByKind: map[string]int{"ok": 2, "hung": 1},
		Latencies: []time.Duration{time.Millisecond, 2 * time.Millisecond}, Elapsed: time.Second, Throughput: 3}
	want := "sent 3 in 1s (3 req/s): ok 2 (degraded 0), hung 1, transport 0, untyped 0\n" +
		"  hung         1\n  ok           2\n  p50 2ms  p95 2ms  p99 2ms"
	if got := r.String(); got != want {
		t.Fatalf("Report.String() =\n%s\nwant\n%s", got, want)
	}
}
