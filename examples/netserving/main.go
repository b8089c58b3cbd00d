// Network serving tier: the layer that turns several supervised fleets into
// one HTTP service while the paper's concurrent-test monitoring keeps
// running underneath every shard. The demo stands up a 2-shard tier on a
// loopback listener and walks its full repertoire, in order:
//
//	tenant placement      → consistent hashing pins each tenant to a shard;
//	                        the same tenant always lands in the same place
//	admission quotas      → a tenant that exceeds its token bucket gets a
//	                        typed 429 with Retry-After, not queueing delay
//	header deadlines      → X-Deadline-Ms propagates through context into
//	                        the shard and comes back as a typed 504
//	degraded serving      → answers from drifting silicon are 200s with a
//	                        degraded flag; the caller decides their worth
//	graceful drain        → one shard retires mid-traffic; its tenants
//	                        rebalance to the survivor with zero silent drops
//	close                 → final accounting: received is fully classified,
//	                        admitted == terminal typed outcomes
//
//	go run ./examples/netserving
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"reramtest/internal/campaign"
	"reramtest/internal/fleet"
	"reramtest/internal/monitor"
	"reramtest/internal/netserve"
	"reramtest/internal/tensor"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "netserving:", err)
		os.Exit(1)
	}
}

func run() error {
	base := campaign.DefaultNetSoakConfig()
	ncfg := base.Net
	ncfg.Quota = netserve.QuotaConfig{Rate: 1, Burst: 3} // tiny: the demo trips it on purpose

	specs := make([]netserve.ShardSpec, 2)
	for i := range specs {
		specs[i] = netserve.ShardSpec{
			Name:    fmt.Sprintf("shard-%d", i),
			Devices: campaign.EngineDevices(int64(i+1), 2, fmt.Sprintf("s%d", i)),
			Fleet:   base.Fleet,
			Serve:   base.Serve,
		}
	}
	f, err := netserve.New(specs, ncfg)
	if err != nil {
		return err
	}
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()
	fmt.Printf("tier up: 2 shards × 2 devices at %s (input width %d)\n\n", ts.URL, f.InDim())

	// --- tenant placement: hashing is stable per tenant
	fmt.Println("— consistent placement —")
	for _, tenant := range []string{"alice", "bob"} {
		shards := map[string]bool{}
		for i := 0; i < 3; i++ {
			_, body, err := infer(ts.URL, tenant, 1, "")
			if err != nil {
				return err
			}
			shards[body["shard"].(string)] = true
		}
		fmt.Printf("  tenant %-6s → always %v\n", tenant, keys(shards))
	}

	// --- quotas: burst of 3 rows, then a typed 429
	fmt.Println("\n— admission quota (1 row/s, burst 3) —")
	for i := 1; i <= 4; i++ {
		code, body, err := infer(ts.URL, "greedy", 1, "")
		if err != nil {
			return err
		}
		if code == http.StatusOK {
			fmt.Printf("  request %d: 200 ok\n", i)
		} else {
			fmt.Printf("  request %d: %d %v — the bucket is dry\n", i, code, body["error"])
		}
	}

	// --- header deadline: a stalled accelerator cannot hold the caller past
	// its budget — a one-shard tier of deliberately slow devices answers an
	// X-Deadline-Ms: 25 request with a typed 504 in ~25ms
	fmt.Println("\n— header deadline —")
	if err := deadlineDemo(base); err != nil {
		return err
	}

	// --- graceful drain: shard-0 retires, fresh tenants rebalance
	fmt.Println("\n— graceful drain —")
	if err := f.DrainShard("shard-0"); err != nil {
		return err
	}
	served, moved := 0, 0
	for _, tenant := range []string{"erin", "frank", "gina", "hank"} {
		code, body, err := infer(ts.URL, tenant, 1, "")
		if err != nil {
			return err
		}
		if code == http.StatusOK {
			served++
			if body["shard"] == "shard-1" {
				moved++
			}
		}
	}
	fmt.Printf("  shard-0 drained; %d/4 fresh tenants served, %d/4 on the surviving shard\n", served, moved)

	// --- close and audit
	if err := f.Close(); err != nil {
		return err
	}
	st := f.Stats()
	fmt.Println("\n— final accounting —")
	fmt.Printf("  received %d = invalid %d + quota %d + closed %d + admitted %d\n",
		st.Received, st.Invalid, st.QuotaRejected, st.ClosedRejected, st.Admitted)
	fmt.Printf("  admitted %d == terminal %d: %v (zero silent drops)\n",
		st.Admitted, st.Terminal(), st.Admitted == st.Terminal())
	if st.Admitted != st.Terminal() {
		return fmt.Errorf("accounting violated: admitted %d != terminal %d", st.Admitted, st.Terminal())
	}
	return nil
}

// slowDevice stalls every readout — the deadline demo's stand-in for a
// wedged accelerator.
type slowDevice struct {
	fleet.Device
	delay time.Duration
}

func (d slowDevice) Infer() monitor.Infer {
	inner := d.Device.Infer()
	return func(x *tensor.Tensor) *tensor.Tensor {
		time.Sleep(d.delay)
		return inner(x)
	}
}

// deadlineDemo runs one request with a 25ms header deadline against a tier
// whose only devices stall for 300ms.
func deadlineDemo(base campaign.NetSoakConfig) error {
	devs := campaign.EngineDevices(9, 2, "slow")
	for i := range devs {
		devs[i] = slowDevice{Device: devs[i], delay: 300 * time.Millisecond}
	}
	// one extra healthy shard so the 2-shard minimum holds; the tenant is
	// picked to hash onto the slow shard
	specs := []netserve.ShardSpec{
		{Name: "shard-slow", Devices: devs, Fleet: base.Fleet, Serve: base.Serve},
		{Name: "shard-live", Devices: campaign.EngineDevices(10, 1, "live"), Fleet: base.Fleet, Serve: base.Serve},
	}
	ncfg := base.Net
	ncfg.RetryMax = 0 // keep the demo on the slow shard
	sf, err := netserve.New(specs, ncfg)
	if err != nil {
		return err
	}
	defer sf.Close()
	sts := httptest.NewServer(sf.Handler())
	defer sts.Close()

	for _, tenant := range []string{"hurried", "rushed", "pressed", "urgent", "frantic"} {
		start := time.Now()
		code, body, err := infer(sts.URL, tenant, 1, "25")
		if err != nil {
			return err
		}
		if code == http.StatusGatewayTimeout {
			fmt.Printf("  X-Deadline-Ms: 25 on a 300ms-stalled shard → %d %v after %v (typed, no hang)\n",
				code, body["error"], time.Since(start).Round(time.Millisecond))
			return nil
		}
	}
	return fmt.Errorf("no tenant landed on the slow shard")
}

// infer posts one single-row request and decodes the reply.
func infer(base, tenant string, rows int, deadlineMs string) (int, map[string]any, error) {
	row := make([]float64, campaign.StockInDim)
	for i := range row {
		row[i] = 0.5
	}
	input := make([][]float64, rows)
	for i := range input {
		input[i] = row
	}
	payload, _ := json.Marshal(map[string]any{"tenant": tenant, "input": input})
	req, err := http.NewRequest(http.MethodPost, base+"/v1/infer", bytes.NewReader(payload))
	if err != nil {
		return 0, nil, err
	}
	if deadlineMs != "" {
		req.Header.Set(netserve.DeadlineHeader, deadlineMs)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
