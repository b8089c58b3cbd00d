package fleet

import (
	"errors"
	"fmt"
	"sync"

	"reramtest/internal/monitor"
)

// ErrNoEligibleDevice is the typed refusal the router returns when it has no
// legal placement for a request: no device is serving, or the only scheduled
// candidate is the one the caller must avoid. The serving frontend wraps it
// in its own ErrNoDevices sentinel, so callers can match either layer's error
// (errors.Is on both holds).
var ErrNoEligibleDevice = errors.New("fleet: no eligible serving device")

// RouteEntry is one serving-eligible accelerator the supervisor offers the
// router after a tick: breaker closed, not retired, confirmed status at
// worst Degraded.
type RouteEntry struct {
	ID     string
	Status monitor.Status
}

// Router dispatches inference requests across the serving members of the
// fleet with health-aware weighting: a Healthy accelerator holds twice the
// schedule slots of a Degraded-but-serving one, and devices the health layer
// has condemned (Impaired/Critical, quarantined, retired) hold none — the
// supervisor never even offers them, so a fleet with no serving device
// refuses every request rather than routing into known-bad silicon.
//
// Placement is idle first: a request takes the first slot at or after the
// cursor whose device has nothing in flight, and only when every device is
// busy the slot at the cursor, so a request never queues behind a busy
// device while another idles. Serial traffic (each request completed before
// the next) sees every device idle and walks the schedule slot by slot, in
// exactly the weighted shares; under concurrency the shares bend toward
// whichever devices finish first.
//
// The router also carries per-device in-flight counts so a device leaving
// the serving set drains visibly: no new requests land on it, and the
// supervisor can wait for Drained before handing it to repair or service.
//
// Unlike the supervisor that owns it, a Router IS safe for concurrent use:
// the serving frontend (internal/serve) dispatches from many worker
// goroutines while the supervisor's owner goroutine rebuilds the schedule
// after each tick. All methods serialise on one internal mutex — the
// schedule is a handful of string slots, so the critical sections are
// nanoseconds against inference calls that are micro- to milliseconds.
type Router struct {
	mu       sync.Mutex
	schedule []string // weighted round-robin expansion
	status   map[string]monitor.Status
	cursor   int
	inflight map[string]int
	routed   int
	sheds    int // refused placements
}

// NewRouter returns a router with an empty schedule.
func NewRouter() *Router {
	return &Router{inflight: make(map[string]int), status: make(map[string]monitor.Status)}
}

// weightFor maps a serving status to its dispatch weight.
func weightFor(s monitor.Status) int {
	switch s {
	case monitor.Healthy:
		return 2
	case monitor.Degraded:
		return 1
	default:
		return 0 // Impaired/Critical never serve
	}
}

// Update rebuilds the dispatch schedule from this tick's serving set. Order
// is preserved (the supervisor passes devices in commissioning order), so
// the schedule — and therefore routing — is deterministic.
func (r *Router) Update(entries []RouteEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.schedule = r.schedule[:0]
	clear(r.status)
	for _, e := range entries {
		w := weightFor(e.Status)
		if w == 0 {
			continue
		}
		r.status[e.ID] = e.Status
		for i := 0; i < w; i++ {
			r.schedule = append(r.schedule, e.ID)
		}
	}
	if len(r.schedule) == 0 {
		r.cursor = 0
	} else {
		r.cursor %= len(r.schedule)
	}
}

// DispatchAvoidingErr routes one request to a device other than avoid
// (empty avoids nothing) and returns its serving status. A hedged retry
// passes the device its first attempt stalled or faulted on, so the second
// attempt lands anywhere else. With no legal placement it returns an error
// matching ErrNoEligibleDevice that says why: the schedule is empty (no
// device serves: every one is quarantined, retired or condemned), or the
// only candidate is the avoided one. The error is built only on refusal.
func (r *Router) DispatchAvoidingErr(avoid string) (id string, status monitor.Status, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	// idle first: the first slot at or after the cursor whose device has no
	// request in flight, else the first slot that is not avoided
	pick := -1
	for probe := range r.schedule {
		slot := (r.cursor + probe) % len(r.schedule)
		candidate := r.schedule[slot]
		if candidate == avoid {
			continue
		}
		if pick < 0 {
			pick = slot
		}
		if r.inflight[candidate] == 0 {
			pick = slot
			break
		}
	}
	if pick >= 0 {
		candidate := r.schedule[pick]
		r.cursor = (pick + 1) % len(r.schedule)
		r.inflight[candidate]++
		r.routed++
		return candidate, r.status[candidate], nil
	}
	r.sheds++
	if len(r.schedule) == 0 {
		return "", 0, fmt.Errorf("%w: empty dispatch schedule", ErrNoEligibleDevice)
	}
	return "", 0, fmt.Errorf("%w: only candidate %q is excluded from this placement",
		ErrNoEligibleDevice, avoid)
}

// Complete retires one in-flight request from id.
func (r *Router) Complete(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.inflight[id] > 0 {
		r.inflight[id]--
	}
}

// Stats returns lifetime dispatch counters: requests routed and requests
// refused.
func (r *Router) Stats() (routed, sheds int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.routed, r.sheds
}
