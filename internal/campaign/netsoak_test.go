package campaign

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"reramtest/internal/health"
	"reramtest/internal/loadgen"
	"reramtest/internal/monitor"
	"reramtest/internal/netserve"
)

// smallNetSoak shrinks the default campaign to test scale.
func smallNetSoak() NetSoakConfig {
	cfg := DefaultNetSoakConfig()
	cfg.Load.Requests = 160
	cfg.Load.Concurrency = 16
	cfg.Load.StormEvery = 2 // segments are only ~5 waves each at this scale
	cfg.TickEvery = 3
	return cfg
}

func TestNetSoakPassesAtTestScale(t *testing.T) {
	res, err := RunNetSoak(31, smallNetSoak())
	if err != nil {
		t.Fatal(err)
	}
	if fails := res.Failures(); len(fails) != 0 {
		t.Fatalf("net soak failed gates: %v\nchaos report:\n%s", fails, res.Chaos)
	}
	if res.Chaos.Sent != 160 {
		t.Fatalf("chaos pass sent %d, want 160", res.Chaos.Sent)
	}
	if res.PostDrainOK == 0 {
		t.Fatal("no post-drain completions")
	}
	if res.Stats.Drains == 0 {
		t.Fatal("no drains recorded")
	}
	if res.Chaos.Storms == 0 {
		t.Fatal("no storm waves ran")
	}
	if res.InjectedSlows+res.InjectedCrashes == 0 {
		t.Fatal("chaos pass injected no faults — the soak gated nothing")
	}
	if res.Ticks == 0 {
		t.Fatal("no monitoring tick ran concurrently with traffic")
	}
	var shardAdmitted uint64
	for _, sh := range res.Shards {
		shardAdmitted += sh.Stats.Admitted
	}
	if shardAdmitted == 0 {
		t.Fatal("no request reached a shard's serve.Server")
	}
	if len(res.Chaos.ByTenant) != 3 {
		t.Fatalf("tenant mix collapsed: %v", res.Chaos.ByTenant)
	}
}

// netSoakFleetPin is DefaultNetSoakConfig().Fleet as %+v with the Sleep
// hook cleared (a func prints as its address), followed by the health and
// monitor constants every device of that fleet runs under. bench/stack.go
// serves its workloads on this fleet config, so none of it may move under
// refactors.
const netSoakFleetPin = "{Workers:0 Health:{EscalateAfter:3 BackoffBase:2ms BackoffMax:50ms Sleep:<nil>} " +
	"BreakerOpenAfter:2 BreakerCooldown:2 RepairBudget:6 CompactEvery:0} " +
	"health:{DeescalateAfter:3 MaxReadRetries:3 MaxHistory:256 VerifyRounds:2} " +
	"monitor:{DegradedAt:0.03 ImpairedAt:0.06 CriticalAt:0.1 " +
	"Criteria:[SDC-1 SDC-5 SDC-T5% SDC-T10% SDC-A3% SDC-A5%] MaxHistory:512}"

func TestNetSoakFleetConfigPinned(t *testing.T) {
	f := DefaultNetSoakConfig().Fleet
	if f.Health.Sleep == nil {
		t.Fatal("Health.Sleep is nil; the soaks run in simulated time")
	}
	slept := make(chan struct{})
	go func() { f.Health.Sleep(time.Hour); close(slept) }()
	select {
	case <-slept:
	case <-time.After(5 * time.Second):
		t.Fatal("Health.Sleep waits in real time; the soaks run in simulated time")
	}
	f.Health.Sleep = nil
	got := fmt.Sprintf("%+v health:{DeescalateAfter:%v MaxReadRetries:%v MaxHistory:%v VerifyRounds:%v} "+
		"monitor:{DegradedAt:%v ImpairedAt:%v CriticalAt:%v Criteria:%v MaxHistory:%v}", f,
		health.DeescalateAfter, health.MaxReadRetries, health.MaxHistory, health.VerifyRounds,
		monitor.DegradedAt, monitor.ImpairedAt, monitor.CriticalAt, monitor.AllCriteria, monitor.MaxHistory)
	if got != netSoakFleetPin {
		t.Fatalf("DefaultNetSoakConfig().Fleet moved\ngot:  %s\nwant: %s", got, netSoakFleetPin)
	}
}

func TestNetSoakValidation(t *testing.T) {
	cfg := smallNetSoak()
	cfg.Shards = 1
	if _, err := RunNetSoak(1, cfg); err == nil {
		t.Fatal("1-shard soak accepted — the drain gate would be unsatisfiable")
	}
	cfg = smallNetSoak()
	cfg.Load.Requests = 2
	if _, err := RunNetSoak(1, cfg); err == nil {
		t.Fatal("2-request soak accepted")
	}
}

// hangTarget never answers inside any deadline.
type hangTarget struct{}

func (hangTarget) Serve(ctx context.Context, _ loadgen.Request) loadgen.Outcome {
	<-ctx.Done()
	return loadgen.Outcome{Kind: "hung"}
}

func TestNetSoakGateDetectsHungTier(t *testing.T) {
	// prove the watchdog side of the gate actually bites: a tier that never
	// answers inside deadline+grace must fail Failures()
	rep, err := loadgen.Run(context.Background(), 5, hangTarget{}, loadgen.Config{
		Requests: 8, Concurrency: 4, InDim: 4, DeadlineMs: 10, Grace: 20 * time.Millisecond,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hung != 8 {
		t.Fatalf("hung %d, want 8", rep.Hung)
	}
	res := NetSoakResult{
		Chaos:       rep,
		PostDrainOK: 1,
		Stats:       netserve.Stats{Drains: 1},
	}
	res.Chaos.OK = 1 // isolate the hung gate
	fails := res.Failures()
	found := false
	for _, f := range fails {
		if strings.Contains(f, "outlived deadline+grace") {
			found = true
		}
	}
	if !found {
		t.Fatalf("Failures() missed the hung requests: %v", fails)
	}
}

func TestMergeReportsPoolsSegments(t *testing.T) {
	// the soak now folds segments through loadgen's exported Report.Merge;
	// this keeps the pooling contract pinned from the campaign side
	a := loadgen.Report{Sent: 10, OK: 8, Hung: 1, Storms: 1,
		ByKind:    map[string]int{"ok": 8, "hung": 1, "deadline": 1},
		ByTenant:  map[string]int{"t": 10},
		Latencies: []time.Duration{time.Millisecond}, Elapsed: time.Second}
	b := loadgen.Report{Sent: 5, OK: 5,
		ByKind: map[string]int{"ok": 5}, ByTenant: map[string]int{"u": 5},
		Latencies: []time.Duration{2 * time.Millisecond}, Elapsed: time.Second}
	m := a
	m.Merge(b)
	if m.Sent != 15 || m.OK != 13 || m.Hung != 1 || m.Storms != 1 {
		t.Fatalf("merged counts wrong: %+v", m)
	}
	if m.ByKind["ok"] != 13 || m.ByTenant["t"] != 10 || m.ByTenant["u"] != 5 {
		t.Fatalf("merged maps wrong: %v %v", m.ByKind, m.ByTenant)
	}
	if len(m.Latencies) != 2 || m.Elapsed != 2*time.Second {
		t.Fatalf("merged latencies/elapsed wrong: %d %v", len(m.Latencies), m.Elapsed)
	}
}
