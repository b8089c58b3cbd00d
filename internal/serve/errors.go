package serve

import "errors"

// Typed serving errors. Every request a Server admits terminates in exactly
// one of: a successful Response, or an error matching (errors.Is) one of
// these sentinels — the zero-silent-drops contract the chaos soak audits.
var (
	// ErrOverloaded: the admission queue for the request's priority class is
	// at capacity. The request was never admitted; the caller should shed or
	// back off, not retry in a tight loop.
	ErrOverloaded = errors.New("serve: overloaded")

	// ErrDeadline: the request's context expired (or was canceled) before a
	// device produced an answer — in the queue or mid-flight. Attempts still
	// running on a device finish in the background and feed the breaker if
	// they fault; they just can't help this caller anymore.
	ErrDeadline = errors.New("serve: deadline exceeded")

	// ErrNoDevices: the router offered no legal placement — no device is
	// serving, because each is quarantined, retired or condemned by its
	// confirmed status. The error the server returns wraps the router's
	// typed refusal, so errors.Is(err, fleet.ErrNoEligibleDevice) also holds
	// and the message carries the router's reason.
	ErrNoDevices = errors.New("serve: no serving devices")

	// ErrFaulted: every attempt the server was willing to make (the primary
	// placement plus at most one hedged retry on a different device) came
	// back faulted — panic, nil or malformed output, non-finite confidences.
	// Only the first three feed the device's breaker: finite inputs can
	// overflow a healthy model, so a non-finite answer quarantines nothing.
	ErrFaulted = errors.New("serve: all attempts faulted")

	// ErrClosed: Do was called after Close began draining.
	ErrClosed = errors.New("serve: server closed")
)

// Priority is a request's admission class.
type Priority int

const (
	// Bulk is ordinary inference traffic: large queue, first to be shed.
	Bulk Priority = iota
	// Monitor is concurrent-test / health-critical traffic: its own small
	// queue, drained ahead of Bulk by every worker, so a saturated bulk
	// queue can never starve the test patterns the paper's monitoring
	// scheme depends on.
	Monitor
)

// String names the priority class.
func (p Priority) String() string {
	switch p {
	case Monitor:
		return "monitor"
	default:
		return "bulk"
	}
}
