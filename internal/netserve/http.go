package netserve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"reramtest/internal/hwcost"
	"reramtest/internal/serve"
	"reramtest/internal/wire"
)

// The HTTP/JSON wire protocol is documented in, and POST /v1/infer bodies
// are decoded and rendered by, internal/wire. The cold paths (error bodies,
// healthz, stats, statsz) stay on encoding/json here.

// errorResponse is every non-200 body.
type errorResponse struct {
	Error   string `json:"error"`
	Message string `json:"message"`
}

// Header values every answer shares; net/http only reads a response's
// header values, so one slice serves them all.
var (
	jsonContentType = []string{"application/json"}
	degradedTrue    = []string{"true"}
)

// DeadlineHeader carries the client's end-to-end deadline in milliseconds;
// it is clamped to Config.MaxDeadline and propagated through context into
// the shard, the fleet router and the device attempt.
const DeadlineHeader = "X-Deadline-Ms"

// Handler returns the tier's HTTP handler.
func (f *Frontend) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/infer", f.handleInfer)
	mux.HandleFunc("/v1/healthz", f.handleHealthz)
	mux.HandleFunc("/statsz", f.handleStatsz)
	return mux
}

// writeError renders one typed error as its mapped status + JSON body.
func writeError(w http.ResponseWriter, err error) {
	code, kind := StatusFor(err)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorResponse{Error: kind, Message: err.Error()})
}

// refuse answers a request that failed validation before Do could count it.
func (f *Frontend) refuse(w http.ResponseWriter, err error) {
	f.received.Add(1)
	f.invalid.Add(1)
	writeError(w, err)
}

// handleInfer is the request path: decode, build the deadline context, run
// the tier, encode.
func (f *Frontend) handleInfer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, fmt.Errorf("netserve: %s not allowed on /v1/infer: %w", r.Method, ErrInvalid))
		return
	}
	body, err := wire.ReadBody(r.Body, r.ContentLength)
	if err != nil {
		f.refuse(w, err)
		return
	}
	// the decoded tensor is a fresh allocation the request owns: serve may
	// still read it from an abandoned hedge after Do returns, so only the
	// byte buffers go back to a pool
	req, err := wire.ParseRequest(body.B, f.inDim, f.cfg.MaxRows)
	body.Release()
	if err != nil {
		f.refuse(w, err)
		return
	}
	prio := serve.Bulk
	if req.Monitor {
		prio = serve.Monitor
	}

	ctx := r.Context()
	if raw := r.Header.Get(DeadlineHeader); raw != "" {
		ms, perr := strconv.ParseInt(raw, 10, 64)
		if perr != nil || ms <= 0 {
			f.refuse(w, fmt.Errorf("netserve: bad %s %q: %w", DeadlineHeader, raw, ErrInvalid))
			return
		}
		// clamp in milliseconds: converting first wraps a huge header negative
		d := f.cfg.MaxDeadline
		if ms <= int64(d/time.Millisecond) {
			d = time.Duration(ms) * time.Millisecond
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	res, err := f.Do(ctx, Request{Tenant: req.Tenant, Priority: prio, X: req.X})
	if err != nil {
		writeError(w, err)
		return
	}
	out := wire.GetBuffer()
	defer out.Release()
	out.B, err = wire.AppendResponse(out.B, &wire.Response{
		Probs:    res.Probs,
		Shard:    res.Shard,
		Device:   res.Device,
		Status:   res.Status.String(),
		Degraded: res.Degraded,
		Hedged:   res.Hedged,
		Retried:  res.Retried,
		Attempts: res.Attempts,
		Cost:     res.Cost,
	})
	if err != nil {
		// a device that answers NaN is broken, and JSON could not say so
		writeError(w, fmt.Errorf("netserve: %s/%s: %v: %w", res.Shard, res.Device, err, serve.ErrFaulted))
		return
	}
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["X-Served-By"] = f.servedBy(res.Shard, res.Device)
	if res.Degraded {
		h["X-Degraded"] = degradedTrue
	}
	w.Write(out.B)
}

// handleHealthz reports per-shard operational state; 200 while any shard is
// live, 503 once every shard is draining or the tier is closed.
func (f *Frontend) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type shardHealth struct {
		Name        string   `json:"name"`
		Draining    bool     `json:"draining"`
		InFlight    int64    `json:"in_flight"`
		Unjournaled bool     `json:"unjournaled"`
		Serving     []string `json:"serving"`
		Quarantined []string `json:"quarantined"`
		Retired     []string `json:"retired"`
	}
	statuses := f.Status()
	out := struct {
		Closed bool          `json:"closed"`
		Shards []shardHealth `json:"shards"`
	}{Closed: f.closed.Load()}
	anyLive := false
	for _, st := range statuses {
		if !st.Draining {
			anyLive = true
		}
		out.Shards = append(out.Shards, shardHealth{
			Name: st.Name, Draining: st.Draining, InFlight: st.InFlight, Unjournaled: st.Unjournaled,
			Serving: st.Serving, Quarantined: st.Quarantined, Retired: st.Retired,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	if !anyLive || out.Closed {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(out)
}

// handleStatsz dumps the full telemetry surface in one scrape: the tier's
// lifetime counters, the response-granular cost table (tenant/shard/fleet,
// internally consistent by construction) and every device's live per-class
// counter snapshot (which additionally carries monitor/repair spend and the
// serving spend of abandoned hedges). Shards that lost their journal and run
// memory-only are listed under "unjournaled" so scrapers can alert on
// durability loss without parsing per-shard health.
func (f *Frontend) handleStatsz(w http.ResponseWriter, r *http.Request) {
	var unjournaled []string
	for _, st := range f.Status() {
		if st.Unjournaled {
			unjournaled = append(unjournaled, st.Name)
		}
	}
	out := struct {
		Stats       Stats                                      `json:"stats"`
		Cost        CostStats                                  `json:"cost"`
		Devices     map[string]map[string]hwcost.CostBreakdown `json:"devices"`
		Unjournaled []string                                   `json:"unjournaled,omitempty"`
	}{Stats: f.Stats(), Cost: f.CostStats(), Devices: f.DeviceCosts(), Unjournaled: unjournaled}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}
