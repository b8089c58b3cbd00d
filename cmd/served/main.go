// Command served runs the network-facing sharded serving tier: N shards,
// each a health-monitored fleet of simulated engine-backed accelerators
// behind the concurrent serve frontend, unified under one HTTP listener
// with consistent-hash tenant placement, per-tenant admission quotas,
// header-propagated deadlines and bounded cross-shard retries.
//
//	served -addr :8080 -shards 2 -devices 3 -quota-rate 512 -quota-burst 1024
//
// The wire protocol is documented in internal/wire and DESIGN.md §13:
//
//	POST /v1/infer    {"tenant":"t","priority":"bulk","input":[[...16 floats]]}
//	GET  /v1/healthz  per-shard serving/draining snapshot (503 when no shard live)
//	GET  /statsz      lifetime counters (under "stats"), response-granular
//	                  hardware cost and every device's per-class spend
//
// A background goroutine runs fleet monitoring ticks; SIGINT/SIGTERM drains
// every shard gracefully (in-flight requests finish, new ones get typed
// 503s) before the listener stops.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"reramtest/internal/campaign"
	"reramtest/internal/fleet"
	"reramtest/internal/netserve"
	"reramtest/internal/tensor"
)

// The listener's edge limits. They are constants, not flags: no deployment of
// this service has needed a second value, and a peer that cannot meet them is
// not a client of a 1 ms inference path. There is no WriteTimeout — a request
// may legitimately wait out MaxDeadline, which the tier enforces itself.
const (
	readHeaderTimeout = 5 * time.Second  // request line + headers; cuts off slowloris
	readTimeout       = 30 * time.Second // headers + the (≤ 4 MiB) body
	idleTimeout       = 2 * time.Minute  // keep-alive connections between requests
	maxHeaderBytes    = 16 << 10
)

// newServer wraps h in the listener cmd/served runs.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// fleetConfig is the net soak's tuned fleet config on the wall clock: the
// soak backs readout retries off in simulated time, a deployment waits them
// out.
func fleetConfig() fleet.Config {
	cfg := campaign.DefaultNetSoakConfig().Fleet
	cfg.Health.Sleep = nil
	return cfg
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	shards := flag.Int("shards", 2, "number of serving shards")
	devices := flag.Int("devices", 3, "accelerators per shard")
	seed := flag.Int64("seed", 1, "device-initialisation seed")
	quotaRate := flag.Float64("quota-rate", 0, "per-tenant admission rate, batch rows/sec (0 = unlimited)")
	quotaBurst := flag.Float64("quota-burst", 0, "per-tenant burst, batch rows (0 = rate)")
	retryMax := flag.Int("retry-max", 1, "max cross-shard retries per request")
	tickEvery := flag.Duration("tick-every", 5*time.Second, "fleet monitoring tick period (0 disables)")
	flag.Parse()

	base := campaign.DefaultNetSoakConfig() // the soak's tuned serve/net knobs
	ncfg := base.Net
	ncfg.Quota = netserve.QuotaConfig{Rate: *quotaRate, Burst: *quotaBurst}
	ncfg.RetryMax = *retryMax

	specs := make([]netserve.ShardSpec, *shards)
	for i := range specs {
		specs[i] = netserve.ShardSpec{
			Name:    fmt.Sprintf("shard-%d", i),
			Devices: campaign.EngineDevices(*seed+int64(i), *devices, fmt.Sprintf("s%d", i)),
			Fleet:   fleetConfig(),
			Serve:   base.Serve,
		}
	}
	f, err := netserve.New(specs, ncfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "served:", err)
		os.Exit(1)
	}

	stopTicks := make(chan struct{})
	if *tickEvery > 0 {
		go func() {
			t := time.NewTicker(*tickEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					f.Tick()
				case <-stopTicks:
					return
				}
			}
		}()
	}

	hs := newServer(*addr, f.Handler())
	done := make(chan struct{})
	sig := drainSignals()
	go func() {
		defer close(done)
		drainOnSignal(sig, f, hs, stopTicks, os.Stdout, os.Stderr)
	}()

	fmt.Printf("served: %d shard(s) × %d device(s), input width %d, conv kernel %s, listening on %s\n",
		*shards, *devices, f.InDim(), tensor.MatMulBlockedKernel(), *addr)
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "served:", err)
		os.Exit(1)
	}
	<-done
}
