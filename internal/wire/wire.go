// Package wire is the POST /v1/infer wire format: one strict decoder for the
// request body, one append-encoder each for the request and the 200 body, a
// lenient reader of the 200 body for clients, and the pooled byte buffers
// both sides render into. It is a leaf (imports
// tensor and reram only) so the server (netserve) and the client (loadgen)
// share it without knowing each other.
//
//	POST /v1/infer
//	  headers: X-Deadline-Ms: <int>   request deadline, clamped to MaxDeadline
//	  body:    {"tenant":"t", "priority":"bulk"|"monitor", "input":[[...]]}
//	  200:     {"probs":[[...]], "shard":"s0", "device":"accel-00",
//	            "status":"HEALTHY", "degraded":false, "hedged":false,
//	            "retried":false, "attempts":1, "cost":{...}}
//	  4xx/5xx: {"error":"<kind>", "message":"..."}  (kind ∈ netserve.KnownKinds)
//	GET /v1/healthz   per-shard serving/quarantined/retired/draining snapshot
//	GET /statsz       full telemetry: lifetime counters, per-tenant/per-shard
//	                  response-granular hardware cost, and every device's live
//	                  per-class counter snapshot
//
// Degraded answers are 200s: the paper's economics keep drifting silicon in
// service, so the flag rides in the body and the X-Degraded header and the
// caller decides what the answer is worth.
//
// The format is JSON and stays JSON; what this package removes is reflection
// and, from the number path, strconv's generality. ParseRequest is a
// single-pass RFC 8259 scanner that gathers each number's decimal significand
// and exponent while it checks the grammar, converts them itself (Clinger's
// exact multiply, then Eisel–Lemire; what those decline — 20 digits or more,
// a half-way case, a subnormal or overflowing result — goes to
// strconv.ParseFloat on the same bytes, the one call left) and writes the
// value straight into the (N, inDim) batch tensor, checking width and the row
// limit as rows stream past, so a hostile body is refused at its first bad
// row instead of being materialised. AppendRequest and AppendResponse render
// shortest round-trip digits themselves (Schubfach, over the generated
// 128-bit power-of-ten table in pow10tab.go that the scanner multiplies by
// too), byte for byte what encoding/json emits and bit for bit what strconv
// reads back (differential sweeps and two fuzz targets hold them to it).
// ParseResponse is the client's reader of a 200: the degraded flag and the
// cost ledger, as integers; the rest is validated and skipped. Error bodies
// and the GET endpoints are cold and stay on encoding/json.
//
// Stricter than encoding/json, on purpose: member names match exactly (a
// case-folded "Tenant" or "INPUT" is refused, not silently bound or ignored),
// "input" may appear once, null is not a value for any known member, strings
// must be valid UTF-8 with no lone surrogate escapes, nothing but whitespace
// may follow the closing brace, and values nest at most maxDepth deep.
// Unknown members are skipped (after validation), members come in any order.
//
// Ownership: only byte buffers are pooled. The decoded tensor is a fresh
// allocation owned by the request — the serving layer may still be reading it
// from an abandoned hedge or an expired attempt after Frontend.Do returned,
// so it must never go back to a pool.
package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
)

// ErrInvalid marks a request that never made sense. netserve re-exports it
// as its own ErrInvalid, so a decode failure maps to HTTP 400 "invalid".
var ErrInvalid = errors.New("invalid request")

// MaxBody caps a request body; ReadBody refuses anything longer unread.
const MaxBody = 1 << 22

// Buffer is a pooled byte slice. Get one, append to B, Release it once
// nothing references B's bytes any more.
type Buffer struct{ B []byte }

var buffers = sync.Pool{New: func() any { return new(Buffer) }}

// GetBuffer returns an empty buffer from the pool.
func GetBuffer() *Buffer {
	b := buffers.Get().(*Buffer)
	b.B = b.B[:0]
	return b
}

// Release returns the buffer to the pool. Oversized buffers are dropped so
// one huge body does not pin its memory for the life of the process.
func (b *Buffer) Release() {
	if cap(b.B) <= 2*MaxBody {
		buffers.Put(b)
	}
}

// ReadBody reads r to EOF into a pooled buffer. size is the declared length
// (http.Request.ContentLength; negative when unknown) and only sizes the
// first read. A body over MaxBody, or one that fails mid-read, is ErrInvalid.
func ReadBody(r io.Reader, size int64) (*Buffer, error) {
	if size > MaxBody {
		return nil, fmt.Errorf("wire: body of %d bytes over the %d-byte cap: %w", size, MaxBody, ErrInvalid)
	}
	buf := GetBuffer()
	// room past the declared length lets the read that fills the body also
	// see EOF, so a well-declared body never grows the buffer
	buf.B = slices.Grow(buf.B, int(max(size, 0))+bytes.MinRead)
	for {
		n, err := r.Read(buf.B[len(buf.B):cap(buf.B)])
		buf.B = buf.B[:len(buf.B)+n]
		if len(buf.B) > MaxBody {
			buf.Release()
			return nil, fmt.Errorf("wire: body over the %d-byte cap: %w", MaxBody, ErrInvalid)
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			buf.Release()
			return nil, fmt.Errorf("wire: reading body: %v: %w", err, ErrInvalid)
		}
		if len(buf.B) == cap(buf.B) {
			buf.B = slices.Grow(buf.B, cap(buf.B))
		}
	}
}
