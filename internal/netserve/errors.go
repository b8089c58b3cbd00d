package netserve

import (
	"errors"
	"net/http"

	"reramtest/internal/serve"
	"reramtest/internal/wire"
)

// The frontend's own sentinels. Together with the serve-layer set
// (serve.ErrOverloaded, ErrDeadline, ErrNoDevices, ErrFaulted, ErrClosed)
// they form the complete typed-error contract the network soak audits: every
// request the tier admits terminates in a 200 or an error matching exactly
// one of these, and StatusFor maps each onto one HTTP status code.
var (
	// ErrInvalid: the request never made sense — bad JSON, missing tenant,
	// wrong input width, batch over MaxRows. Never admitted, never retried.
	// It is the wire codec's sentinel, so a decode failure needs no rewrap.
	ErrInvalid = wire.ErrInvalid

	// ErrQuota: the tenant's token bucket is empty. The request was never
	// admitted; the client should back off for at least RetryAfter.
	ErrQuota = errors.New("netserve: tenant quota exhausted")

	// ErrFrontendClosed: the request arrived after Close began draining the
	// tier (distinct from serve.ErrClosed, which names a single shard mid-
	// drain and is retried onto its neighbours).
	ErrFrontendClosed = errors.New("netserve: frontend closed")
)

// errorKind is the wire name for an error class — stable strings the load
// generator and dashboards key on.
func errorKind(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrInvalid):
		return "invalid"
	case errors.Is(err, ErrQuota):
		return "quota"
	case errors.Is(err, ErrFrontendClosed):
		return "closed"
	case errors.Is(err, serve.ErrOverloaded):
		return "overloaded"
	case errors.Is(err, serve.ErrDeadline):
		return "deadline"
	case errors.Is(err, serve.ErrNoDevices):
		return "no_devices"
	case errors.Is(err, serve.ErrClosed):
		return "closed"
	case errors.Is(err, serve.ErrFaulted):
		return "faulted"
	default:
		return "internal"
	}
}

// KnownKinds is the closed set of wire error kinds a healthy tier may emit.
// Anything outside it (the "internal" fallback) is an untyped error escaping
// the contract — the soak gates on never seeing one.
var KnownKinds = []string{"ok", "invalid", "quota", "closed", "overloaded",
	"deadline", "no_devices", "faulted"}

// StatusFor maps a frontend error onto its HTTP status code and wire kind:
//
//	nil               → 200 ok        (Degraded answers are 200 + flag)
//	ErrInvalid        → 400 invalid
//	ErrQuota          → 429 quota     (with Retry-After)
//	serve.ErrOverloaded → 429 overloaded (with Retry-After)
//	serve.ErrDeadline → 504 deadline
//	serve.ErrNoDevices → 503 no_devices
//	ErrFrontendClosed / serve.ErrClosed → 503 closed
//	serve.ErrFaulted  → 502 faulted
//	anything else     → 500 internal  (a contract violation, gated to zero)
func StatusFor(err error) (code int, kind string) {
	kind = errorKind(err)
	switch kind {
	case "ok":
		return http.StatusOK, kind
	case "invalid":
		return http.StatusBadRequest, kind
	case "quota", "overloaded":
		return http.StatusTooManyRequests, kind
	case "deadline":
		return http.StatusGatewayTimeout, kind
	case "no_devices", "closed":
		return http.StatusServiceUnavailable, kind
	case "faulted":
		return http.StatusBadGateway, kind
	default:
		return http.StatusInternalServerError, kind
	}
}
