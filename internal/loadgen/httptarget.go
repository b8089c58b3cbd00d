package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"

	"reramtest/internal/wire"
)

// HTTPTarget drives a live netserve endpoint over its wire protocol. It hands
// each request straight to the client's Transport: the target follows no
// redirects, keeps no cookies and ignores http.Client.Timeout — the
// per-request context bounds each call, so hung detection stays in Run's
// hands.
type HTTPTarget struct {
	client *http.Client
	rt     http.RoundTripper
	url    *url.URL // base+"/v1/infer"; nil when base did not parse

	mu      sync.Mutex                          // serialises headers writers
	headers atomic.Pointer[map[int]http.Header] // copied on write
}

// maxHeaders bounds the cached header sets; a request with a deadline past
// the first maxHeaders distinct ones gets a fresh set.
const maxHeaders = 64

// NewHTTPTarget points the generator at a serving tier's base URL
// (e.g. "http://127.0.0.1:8080"). A nil client gets a dedicated one; only
// its Transport (http.DefaultTransport when nil) is used.
func NewHTTPTarget(base string, client *http.Client) *HTTPTarget {
	if client == nil {
		client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	}
	h := &HTTPTarget{client: client, rt: client.Transport}
	if h.rt == nil {
		h.rt = http.DefaultTransport
	}
	if u, err := url.Parse(base + "/v1/infer"); err == nil {
		h.url = u
	}
	h.headers.Store(&map[int]http.Header{})
	return h
}

// CloseIdle releases kept-alive connections; soaks call it before the
// goroutine-leak audit.
func (h *HTTPTarget) CloseIdle() {
	h.client.CloseIdleConnections()
}

// header returns the shared, read-only header set for one X-Deadline-Ms
// value; the transport only reads a request's headers.
func (h *HTTPTarget) header(deadlineMs int) http.Header {
	if hdr, ok := (*h.headers.Load())[deadlineMs]; ok {
		return hdr
	}
	hdr := http.Header{
		"Content-Type":  {"application/json"},
		"X-Deadline-Ms": {strconv.Itoa(deadlineMs)},
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	old := *h.headers.Load()
	if cached, ok := old[deadlineMs]; ok {
		return cached
	}
	if len(old) < maxHeaders {
		next := maps.Clone(old)
		next[deadlineMs] = hdr
		h.headers.Store(&next)
	}
	return hdr
}

// loan lends a pooled buffer to the transport as the request body. The body
// is an io.NopCloser over a *bytes.Reader, which net/http recognises as in
// memory and writes together with the headers. The transport may still be
// writing it when RoundTrip returns (a reply that beat the upload), so the
// buffer goes back to the pool only when refs reaches zero: one reference is
// the caller's until it returns, one is each transport write, reported done
// through httptrace.ClientTrace.WroteRequest. The first write holds a
// reference from the start, and every GetBody replay adds one before its
// write begins. A loan whose count never reaches zero (a write that never
// began: no connection, or a context that ended first) is left to the GC.
type loan struct {
	buf   *wire.Buffer
	refs  atomic.Int32
	trace httptrace.ClientTrace
}

func newLoan(buf *wire.Buffer) *loan {
	l := &loan{buf: buf}
	l.refs.Store(2)
	l.trace.WroteRequest = func(httptrace.WroteRequestInfo) { l.done() }
	return l
}

func (l *loan) body() io.ReadCloser { return io.NopCloser(bytes.NewReader(l.buf.B)) }

func (l *loan) getBody() (io.ReadCloser, error) {
	l.refs.Add(1)
	return l.body(), nil
}

func (l *loan) done() {
	if l.refs.Add(-1) == 0 {
		l.buf.Release()
	}
}

// Serve posts one request to /v1/infer and classifies the reply.
func (h *HTTPTarget) Serve(ctx context.Context, req Request) Outcome {
	if h.url == nil {
		return Outcome{Kind: "transport"}
	}
	buf := wire.GetBuffer()
	var err error
	if buf.B, err = wire.AppendRequest(buf.B, req.Tenant, req.Monitor, req.Input); err != nil {
		buf.Release()
		return Outcome{Kind: "transport"}
	}
	l := newLoan(buf)
	defer l.done()
	hreq := (&http.Request{
		Method:        http.MethodPost,
		URL:           h.url,
		Header:        h.header(req.DeadlineMs),
		Body:          l.body(),
		GetBody:       l.getBody,
		ContentLength: int64(len(buf.B)),
	}).WithContext(httptrace.WithClientTrace(ctx, &l.trace))

	resp, err := h.rt.RoundTrip(hreq)
	if err != nil {
		// a context expiry here means the tier outlived deadline+grace
		if errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil {
			return Outcome{Kind: "hung"}
		}
		return Outcome{Kind: "transport"}
	}
	defer resp.Body.Close()

	if resp.StatusCode == http.StatusOK {
		// read to EOF, so the keep-alive connection goes back reusable
		rbuf, err := wire.ReadBody(resp.Body, resp.ContentLength)
		if err != nil {
			return Outcome{Kind: "transport", Code: resp.StatusCode}
		}
		defer rbuf.Release()
		degraded, cost, err := wire.ParseResponse(rbuf.B)
		if err != nil {
			return Outcome{Kind: "transport", Code: resp.StatusCode}
		}
		return Outcome{Kind: "ok", Code: resp.StatusCode, Degraded: degraded, Cost: cost}
	}
	var bad struct {
		Error string `json:"error"`
	}
	if derr := json.NewDecoder(resp.Body).Decode(&bad); derr != nil || bad.Error == "" {
		bad.Error = fmt.Sprintf("http_%d", resp.StatusCode)
	}
	return Outcome{Kind: bad.Error, Code: resp.StatusCode}
}
