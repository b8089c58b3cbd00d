package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"slices"
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
// (e.g. "http://127.0.0.1:8080"). A nil client gets a dedicated one over
// pooledCopyConn connections; only its Transport (http.DefaultTransport when
// nil) is used.
func NewHTTPTarget(base string, client *http.Client) *HTTPTarget {
	if client == nil {
		var d net.Dialer
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 64,
			DisableCompression:  true, // served never compresses an answer
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				c, err := d.DialContext(ctx, network, addr)
				if err != nil {
					return nil, err
				}
				return pooledCopyConn{c}, nil
			},
		}}
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

// pooledCopyConn is a connection that writes what the transport hands its
// ReadFrom — the part of a request body past the transport's 4 KiB write
// buffer — through a buffer from wire's pool. A bare *net.TCPConn passes it
// to io.Copy, which makes a fresh 32 KiB buffer for every such body.
type pooledCopyConn struct{ net.Conn }

// minCopyBuf is the smallest copy buffer, io.Copy's own size; a pooled
// buffer that once held a bigger body copies in fewer writes.
const minCopyBuf = 32 << 10

func (c pooledCopyConn) ReadFrom(r io.Reader) (n int64, err error) {
	buf := wire.GetBuffer()
	defer buf.Release()
	buf.B = slices.Grow(buf.B, minCopyBuf)
	b := buf.B[:cap(buf.B)]
	for {
		nr, rerr := r.Read(b)
		if nr > 0 {
			nw, werr := c.Conn.Write(b[:nr])
			n += int64(nw)
			if werr != nil {
				return n, werr
			}
		}
		if rerr == io.EOF {
			return n, nil
		}
		if rerr != nil {
			return n, rerr
		}
	}
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
// write begins (the transport calls GetBody only while the caller's is
// held). At zero the loan goes back to the pool with its buffer. A loan
// whose count never reaches zero (a write that never began: no connection,
// or a context that ended first) is left to the GC.
type loan struct {
	buf     *wire.Buffer
	refs    atomic.Int32
	trace   httptrace.ClientTrace
	wrote   func(httptrace.WroteRequestInfo)
	rd      bytes.Reader
	body    io.ReadCloser // io.NopCloser(&rd)
	getBody func() (io.ReadCloser, error)
}

var loans sync.Pool // *loan

// lend takes a pooled loan of buf; a new one makes its closures once.
func lend(buf *wire.Buffer) *loan {
	l, _ := loans.Get().(*loan)
	if l == nil {
		l = new(loan)
		l.wrote = func(httptrace.WroteRequestInfo) { l.done() }
		l.body = io.NopCloser(&l.rd)
		l.getBody = l.replay
	}
	l.buf = buf
	l.rd.Reset(buf.B)
	// fresh each time: WithClientTrace composes a caller's trace into it
	l.trace = httptrace.ClientTrace{WroteRequest: l.wrote}
	l.refs.Store(2)
	return l
}

// replay is GetBody, with its own reader: the first write may still read rd.
func (l *loan) replay() (io.ReadCloser, error) {
	l.refs.Add(1)
	return io.NopCloser(bytes.NewReader(l.buf.B)), nil
}

func (l *loan) done() {
	if l.refs.Add(-1) == 0 {
		l.buf.Release()
		l.buf = nil
		loans.Put(l)
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
	l := lend(buf)
	defer l.done()
	hreq := (&http.Request{
		Method:        http.MethodPost,
		URL:           h.url,
		Header:        h.header(req.DeadlineMs),
		Body:          l.body,
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
