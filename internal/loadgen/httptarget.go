package loadgen

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"reramtest/internal/wire"
)

// HTTPTarget drives a live netserve endpoint over its wire protocol.
type HTTPTarget struct {
	base   string
	client *http.Client
}

// NewHTTPTarget points the generator at a serving tier's base URL
// (e.g. "http://127.0.0.1:8080"). A nil client gets a dedicated one — the
// per-request context, not a client timeout, bounds each call, so hung
// detection stays in Run's hands.
func NewHTTPTarget(base string, client *http.Client) *HTTPTarget {
	if client == nil {
		client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	}
	return &HTTPTarget{base: base, client: client}
}

// CloseIdle releases kept-alive connections; soaks call it before the
// goroutine-leak audit.
func (h *HTTPTarget) CloseIdle() {
	h.client.CloseIdleConnections()
}

// requestBody lends a pooled buffer to net/http as a request body. The
// transport may still be writing the body from its own goroutine when
// client.Do returns (a reply that beat the upload, a cancelled context), so
// the buffer cannot simply go back to the pool on return: every reader copies
// under mu, detach takes mu before the buffer goes back, and a read after
// detach fails instead of touching it.
type requestBody struct {
	mu  sync.Mutex
	buf *wire.Buffer // nil once detached
}

// bodyReader is one pass over a requestBody; GetBody makes another when the
// transport replays the request on a fresh connection.
type bodyReader struct {
	b   *requestBody
	off int
}

func (r *bodyReader) Read(p []byte) (int, error) {
	r.b.mu.Lock()
	defer r.b.mu.Unlock()
	if r.b.buf == nil {
		return 0, io.ErrClosedPipe
	}
	if r.off == len(r.b.buf.B) {
		return 0, io.EOF
	}
	n := copy(p, r.b.buf.B[r.off:])
	r.off += n
	return n, nil
}

func (r *bodyReader) Close() error { return nil }

// detach ends the loan.
func (b *requestBody) detach() {
	b.mu.Lock()
	b.buf.Release()
	b.buf = nil
	b.mu.Unlock()
}

// Serve posts one request to /v1/infer and classifies the reply.
func (h *HTTPTarget) Serve(ctx context.Context, req Request) Outcome {
	buf := wire.GetBuffer()
	var err error
	if buf.B, err = wire.AppendRequest(buf.B, req.Tenant, req.Monitor, req.Input); err != nil {
		buf.Release()
		return Outcome{Kind: "transport"}
	}
	body := &requestBody{buf: buf}
	defer body.detach()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+"/v1/infer", &bodyReader{b: body})
	if err != nil {
		return Outcome{Kind: "transport"}
	}
	hreq.ContentLength = int64(len(buf.B))
	hreq.GetBody = func() (io.ReadCloser, error) { return &bodyReader{b: body}, nil }
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Deadline-Ms", strconv.Itoa(req.DeadlineMs))

	resp, err := h.client.Do(hreq)
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
