// Graceful drain: SIGINT and SIGTERM are equivalent — both stop the
// monitoring ticker, drain every shard (in-flight requests finish, new ones
// get typed 503s) and then shut the listener down.
package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"reramtest/internal/netserve"
)

// drainSignals registers the graceful-drain signal set.
func drainSignals() chan os.Signal {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	return sig
}

// drainOnSignal blocks until a drain signal arrives, then runs the shutdown
// sequence — ticker, shards, listener, in that order — and returns the
// signal handled.
func drainOnSignal(sig <-chan os.Signal, f *netserve.Frontend, hs *http.Server, stopTicks chan struct{}, out io.Writer) os.Signal {
	s := <-sig
	fmt.Fprintf(out, "served: %v — draining %d shard(s)\n", s, len(f.ShardNames()))
	close(stopTicks)
	f.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	hs.Shutdown(ctx)
	st := f.Stats()
	fmt.Fprintf(out, "served: drained — received %d, completed %d (degraded %d), admitted==terminal: %v\n",
		st.Received, st.Completed, st.CompletedDegraded, st.Admitted == st.Terminal())
	return s
}
