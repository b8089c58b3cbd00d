package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"testing"
	"time"

	"reramtest/internal/campaign"
	"reramtest/internal/netserve"
	"reramtest/internal/rng"
	"reramtest/internal/tensor"
	"reramtest/internal/wire"
)

// TestFleetRunsOnWallClock: served's readout retries back off on the wall
// clock (a nil Sleep), not on the net soak's simulated one; every other
// fleet setting is the soak's.
func TestFleetRunsOnWallClock(t *testing.T) {
	got := fleetConfig()
	if got.Health.Sleep != nil {
		t.Fatal("served's fleet backs off on an injected clock, not the wall clock")
	}
	soak := campaign.DefaultNetSoakConfig().Fleet
	soak.Health.Sleep = nil
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", soak) {
		t.Fatalf("served's fleet config %+v differs from the soak's %+v beyond the clock", got, soak)
	}
}

// TestSIGTERMDrainsGracefully delivers a real SIGTERM to the process and
// checks the full drain sequence: the handler fires, the tier closes (new
// requests get the typed closed error), and the listener shuts down with
// ErrServerClosed — exactly the SIGINT behaviour.
func TestSIGTERMDrainsGracefully(t *testing.T) {
	base := campaign.DefaultNetSoakConfig()
	f, err := netserve.New([]netserve.ShardSpec{{
		Name:    "shard-0",
		Devices: campaign.EngineDevices(1, 2, "s0"),
		Fleet:   base.Fleet,
		Serve:   base.Serve,
	}}, base.Net)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: f.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	// prove the tier serves before the signal
	x := tensor.RandUniform(rng.New(3), 0, 1, 1, f.InDim())
	if _, err := f.Do(context.Background(), netserve.Request{Tenant: "t", X: x}); err != nil {
		t.Fatalf("pre-drain request failed: %v", err)
	}

	sig := drainSignals()
	defer signal.Stop(sig)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		if s := drainOnSignal(sig, f, hs, make(chan struct{}), io.Discard); s != syscall.SIGTERM {
			t.Errorf("drained on %v, want SIGTERM", s)
		}
	}()

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-drained:
	case <-time.After(15 * time.Second):
		t.Fatal("SIGTERM drain never completed")
	}

	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("listener exited with %v, want ErrServerClosed", err)
	}
	if _, err := f.Do(context.Background(), netserve.Request{Tenant: "t", X: x}); !errors.Is(err, netserve.ErrFrontendClosed) {
		t.Fatalf("post-drain request returned %v, want ErrFrontendClosed", err)
	}
	// nothing admitted was dropped on the floor by the drain
	if st := f.Stats(); st.Admitted != st.Terminal() {
		t.Fatalf("drain lost requests: admitted %d, terminal %d", st.Admitted, st.Terminal())
	}
}

// TestStalledHeadersAreCutOff: a peer that opens a connection and never
// finishes its headers is disconnected once readHeaderTimeout runs out, and
// costs well-formed traffic nothing while it hangs there.
func TestStalledHeadersAreCutOff(t *testing.T) {
	base := campaign.DefaultNetSoakConfig()
	f, err := netserve.New([]netserve.ShardSpec{{
		Name:    "shard-0",
		Devices: campaign.EngineDevices(3, 2, "s0"),
		Fleet:   base.Fleet,
		Serve:   base.Serve,
	}}, base.Net)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newServer("", f.Handler())
	go hs.Serve(ln)
	defer hs.Close()

	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	start := time.Now()
	if _, err := io.WriteString(stalled, "POST /v1/infer HTTP/1.1\r\nHost: served\r\nX-Stalled: "); err != nil {
		t.Fatal(err)
	}

	body, err := wire.AppendRequest(nil, "t", false, [][]float64{make([]float64, f.InDim())})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+ln.Addr().String()+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("well-formed request beside a stalled one: %d, want 200", resp.StatusCode)
	}

	// the server hangs up without a reply; a read deadline error instead
	// means it was still holding the connection
	const slack = 3 * time.Second
	stalled.SetReadDeadline(start.Add(readHeaderTimeout + slack))
	if _, err := io.Copy(io.Discard, stalled); err != nil {
		t.Fatalf("stalled connection still open %v after its first byte: %v", time.Since(start), err)
	}
	if held := time.Since(start); held < readHeaderTimeout/2 {
		t.Fatalf("stalled connection dropped after %v, long before the %v header timeout", held, readHeaderTimeout)
	}
}

// TestDrainHandlesSIGINTToo pins that both registered signals run the same
// sequence (the channel is shared, so one handler covers both).
func TestDrainHandlesSIGINTToo(t *testing.T) {
	base := campaign.DefaultNetSoakConfig()
	f, err := netserve.New([]netserve.ShardSpec{{
		Name:    "shard-0",
		Devices: campaign.EngineDevices(2, 2, "s0"),
		Fleet:   base.Fleet,
		Serve:   base.Serve,
	}}, base.Net)
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Addr: "127.0.0.1:0", Handler: f.Handler()}
	sig := make(chan os.Signal, 1)
	sig <- os.Interrupt
	if s := drainOnSignal(sig, f, hs, make(chan struct{}), io.Discard); s != os.Interrupt {
		t.Fatalf("drained on %v, want SIGINT", s)
	}
	if _, err := f.Do(context.Background(), netserve.Request{Tenant: "t", X: tensor.New(1, f.InDim())}); !errors.Is(err, netserve.ErrFrontendClosed) {
		t.Fatalf("post-drain request returned %v, want ErrFrontendClosed", err)
	}
}
