package loadgen

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reramtest/internal/tensor"
	"reramtest/internal/wire"
)

const smallDim = 16

// smallRequest is request n of a one-row stream whose body the server can
// rebuild from the tenant name alone.
func smallRequest(n int) Request {
	row := make([]float64, smallDim)
	for j := range row {
		row[j] = float64(n) + float64(j)/16
	}
	return Request{Tenant: "small-" + strconv.Itoa(n), Input: [][]float64{row}, DeadlineMs: 1000}
}

// wireHandler answers every request it accepts with a one-row 200 rendered
// by wire.AppendResponse; check, when non-nil, vets the request first.
func wireHandler(check func(r *http.Request, body []byte) error) http.HandlerFunc {
	probs := tensor.FromSlice([]float64{0.25, 0.75}, 1, 2)
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := wire.ReadBody(r.Body, r.ContentLength)
		if err == nil {
			if check != nil {
				err = check(r, body.B)
			}
			body.Release()
		}
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		out := wire.GetBuffer()
		defer out.Release()
		out.B, _ = wire.AppendResponse(out.B, &wire.Response{
			Probs: probs, Shard: "shard-0", Device: "dev-0", Status: "HEALTHY", Attempts: 1,
		})
		w.Header().Set("Content-Type", "application/json")
		w.Write(out.B)
	}
}

// countingConn counts the Write calls a connection sees.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// A request whose body net/http recognises as in memory leaves as one write,
// headers and body together; any other body makes the transport flush the
// headers first.
func TestHTTPTargetOneWritePerRequest(t *testing.T) {
	ts := httptest.NewServer(wireHandler(nil))
	defer ts.Close()
	var writes atomic.Int64
	var d net.Dialer
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := d.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return &countingConn{Conn: c, writes: &writes}, nil
	}}
	tgt := NewHTTPTarget(ts.URL, &http.Client{Transport: tr})
	defer tgt.CloseIdle()

	const n = 40
	for i := 0; i < n; i++ {
		if out := tgt.Serve(context.Background(), smallRequest(i)); out.Kind != "ok" {
			t.Fatalf("request %d: %+v", i, out)
		}
	}
	if got := writes.Load(); got != n {
		t.Fatalf("%d requests took %d connection writes, want %d", n, got, n)
	}
}

// Each request carries its own X-Deadline-Ms, also past the deadlines whose
// header sets the target keeps.
func TestHTTPTargetDeadlineHeaders(t *testing.T) {
	ts := httptest.NewServer(wireHandler(func(r *http.Request, body []byte) error {
		req, err := wire.ParseRequest(body, smallDim, 1)
		if err != nil {
			return err
		}
		if got, want := r.Header.Get("X-Deadline-Ms"), strings.TrimPrefix(req.Tenant, "small-"); got != want {
			t.Errorf("tenant %s: X-Deadline-Ms %q, want %q", req.Tenant, got, want)
		}
		return nil
	}))
	defer ts.Close()
	tgt := NewHTTPTarget(ts.URL, nil)
	defer tgt.CloseIdle()

	for n := 1; n <= 2*maxHeaders; n++ {
		q := smallRequest(n)
		q.DeadlineMs = n
		if out := tgt.Serve(context.Background(), q); out.Kind != "ok" {
			t.Fatalf("request %d: %+v", n, out)
		}
	}
	if kept := len(*tgt.headers.Load()); kept != maxHeaders {
		t.Fatalf("%d header sets kept, want %d", kept, maxHeaders)
	}
}

// A server may answer before it has read the body — here a 413, without
// reading, to anything over 64 KiB — while the transport is still uploading
// it from the pooled buffer. The buffer must not go back to the pool before
// that upload is over: under -race, a buffer reused early is a DATA RACE with
// the upload still reading it, and a small body corrupted by that reuse fails
// the server's byte-for-byte check. A loan released as soon as RoundTrip
// returns fails this test under -race.
func TestHTTPTargetEarlyAnswer(t *testing.T) {
	const limit = 64 << 10
	small := wireHandler(func(_ *http.Request, body []byte) error {
		req, err := wire.ParseRequest(body, smallDim, 1)
		if err != nil {
			return err
		}
		n, err := strconv.Atoi(strings.TrimPrefix(req.Tenant, "small-"))
		if err != nil {
			return err
		}
		q := smallRequest(n)
		if want, _ := wire.AppendRequest(nil, q.Tenant, q.Monitor, q.Input); !bytes.Equal(body, want) {
			t.Errorf("small body %d arrived corrupted:\n got %.120q\nwant %.120q", n, body, want)
			return errors.New("corrupted")
		}
		return nil
	})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.ContentLength > limit {
			w.WriteHeader(http.StatusRequestEntityTooLarge)
			return
		}
		small(w, r)
	}))
	defer ts.Close()

	// a big body is mostly its tenant name, which renders as one copy: cheap
	// enough under -race to send many
	big := Request{Tenant: strings.Repeat("b", 1<<20), Input: [][]float64{{0.5}}, DeadlineMs: 1000}

	// a small send buffer keeps a big upload in the transport, reading the
	// pooled buffer, instead of in the kernel
	var d net.Dialer
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 64,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			if err := c.(*net.TCPConn).SetWriteBuffer(4 << 10); err != nil {
				c.Close()
				return nil, err
			}
			return c, nil
		},
	}}
	tgt := NewHTTPTarget(ts.URL, client)
	defer tgt.CloseIdle()

	const workers, rounds = 8, 16
	var early atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				// two big bodies back to back: the second is rendered into
				// whatever buffer the pool hands out next
				for range 2 {
					switch out := tgt.Serve(ctx, big); out.Kind {
					case "http_413":
						early.Add(1)
					case "transport": // the server closed while the upload ran
					default:
						t.Errorf("big request: %+v", out)
					}
				}
				if out := tgt.Serve(ctx, smallRequest(g*rounds+i)); out.Kind != "ok" {
					t.Errorf("small request %d: %+v", g*rounds+i, out)
				}
				cancel()
			}
		}(g)
	}
	wg.Wait()
	if early.Load() == 0 {
		t.Fatal("no big request got its 413 back: the early answer was never exercised")
	}
}

// BenchmarkHTTPTargetServe is one small request over loopback, client and
// server in one process, so allocs/op counts both ends.
func BenchmarkHTTPTargetServe(b *testing.B) {
	ts := httptest.NewServer(wireHandler(nil))
	defer ts.Close()
	tgt := NewHTTPTarget(ts.URL, nil)
	defer tgt.CloseIdle()
	req := smallRequest(1)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := tgt.Serve(ctx, req); out.Kind != "ok" {
			b.Fatalf("%+v", out)
		}
	}
}
