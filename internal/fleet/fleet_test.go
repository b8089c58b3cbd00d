package fleet

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"reramtest/internal/engine"
	"reramtest/internal/health"
	"reramtest/internal/journal"
	"reramtest/internal/models"
	"reramtest/internal/monitor"
	"reramtest/internal/nn"
	"reramtest/internal/repair"
	"reramtest/internal/rng"
	"reramtest/internal/tensor"
	"reramtest/internal/testgen"
)

// fakeDevice is a scripted accelerator: persistent damage appears at a fixed
// round (cleared by a successful repair), the sensor path dies over a fixed
// round window, and everything is a pure function of the externally advanced
// round plus the device's own mutable state — so the same script replays
// identically across a supervisor crash, exactly like physical hardware
// whose state survives the monitoring process.
type fakeDevice struct {
	id       string
	net      *nn.Network
	patterns *testgen.PatternSet

	round            int
	damageFrom       int // round at which persistent damage appears (0 = never)
	damaged          bool
	deadFrom, deadTo int // sensor-dead window [from, to] (0 = never)

	repairs     int
	failRepairs bool // repair tooling broken: every apply errors
}

func (d *fakeDevice) ID() string                    { return d.id }
func (d *fakeDevice) Reference() *nn.Network        { return d.net }
func (d *fakeDevice) Patterns() *testgen.PatternSet { return d.patterns }
func (d *fakeDevice) Repairer() health.Repairer     { return d }

// SetRound advances scripted time (the test's injection hook, like the
// campaign plant's SetRound).
func (d *fakeDevice) SetRound(r int) {
	d.round = r
	if d.damageFrom > 0 && r == d.damageFrom {
		d.damaged = true
	}
}

func (d *fakeDevice) sensorDead() bool {
	return d.deadFrom > 0 && d.round >= d.deadFrom && d.round <= d.deadTo
}

func (d *fakeDevice) Infer() monitor.Infer {
	return func(x *tensor.Tensor) *tensor.Tensor {
		if d.sensorDead() {
			panic("fakeDevice: sensor dead")
		}
		probs := probsOf(d.net, x)
		if d.damaged {
			probs.Apply(func(v float64) float64 { return v + 0.2 })
		}
		return probs
	}
}

// Strategies implements health.Repairer: the fixed escalation, every rung
// of it apply.
func (d *fakeDevice) Strategies() []repair.Strategy {
	return repair.Escalation(d.apply, d.apply, d.apply)
}

func (d *fakeDevice) Diagnose(confirmed monitor.Status) repair.Diagnosis {
	return repair.Diagnosis{Status: confirmed}
}

func (d *fakeDevice) apply() (*nn.Network, error) {
	d.repairs++
	if d.failRepairs {
		return nil, errors.New("fakeDevice: repair tooling offline")
	}
	d.damaged = false
	return nil, nil
}

// testFleet builds n scripted devices with identical (but separately owned)
// tiny reference models — nn.Network forward passes use per-layer scratch
// buffers, so concurrent device rounds must never share one instance.
func testFleet(n int) []*fakeDevice {
	patterns := &testgen.PatternSet{
		Name: "t", Method: "plain",
		X:      tensor.RandUniform(rng.New(2), 0, 1, 8, 16),
		Labels: make([]int, 8),
	}
	devs := make([]*fakeDevice, n)
	for i := range devs {
		devs[i] = &fakeDevice{id: fmt.Sprintf("accel-%02d", i),
			net: models.MLP(rng.New(1), 16, []int{12}, 5), patterns: patterns}
	}
	return devs
}

func asDevices(devs []*fakeDevice) []Device {
	out := make([]Device, len(devs))
	for i, d := range devs {
		out[i] = d
	}
	return out
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Health.Sleep = func(time.Duration) {}
	return cfg
}

func advance(devs []*fakeDevice, round int) {
	for _, d := range devs {
		d.SetRound(round)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	var b Breaker
	if b.ObserveRound(true, 1, 2) {
		t.Fatal("tripped after one fault with openAfter=2")
	}
	if b.ObserveRound(false, 2, 2) || b.Faults != 0 {
		t.Fatal("clean round did not reset the fault streak")
	}
	b.ObserveRound(true, 3, 2)
	if !b.ObserveRound(true, 4, 2) {
		t.Fatal("two consecutive faults did not trip")
	}
	if b.State != BreakerOpen || b.OpenedAt != 4 || b.Trips != 1 {
		t.Fatalf("post-trip breaker: %+v", b)
	}
	if b.Due(5, 3) {
		t.Fatal("due before cooldown elapsed")
	}
	if !b.Due(7, 3) {
		t.Fatal("not due after cooldown")
	}
	b.BeginProbe()
	b.ProbeResult(false, 7)
	if b.State != BreakerOpen || b.OpenedAt != 7 {
		t.Fatalf("failed probe did not re-open with a fresh cooldown: %+v", b)
	}
	b.BeginProbe()
	b.ProbeResult(true, 10)
	if b.State != BreakerClosed || b.Faults != 0 {
		t.Fatalf("successful probe did not close: %+v", b)
	}
	if err := (Breaker{State: BreakerState(7)}).Validate(); err == nil {
		t.Fatal("out-of-range breaker state validated")
	}
}

func TestRouterWeightingAndShed(t *testing.T) {
	r := NewRouter()
	r.Update([]RouteEntry{
		{ID: "h", Status: monitor.Healthy},
		{ID: "d", Status: monitor.Degraded},
		{ID: "x", Status: monitor.Impaired}, // must never be scheduled
	})
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		id, status, err := r.DispatchAvoidingErr("")
		if err != nil {
			t.Fatal("shed with two serving devices")
		}
		if id == "d" && status != monitor.Degraded {
			t.Fatalf("dispatch to d reported status %s", status)
		}
		counts[id]++
	}
	if counts["x"] != 0 {
		t.Fatalf("routed %d requests to an Impaired device", counts["x"])
	}
	if counts["h"] != 2*counts["d"] {
		t.Fatalf("health-aware weighting off: healthy=%d degraded=%d", counts["h"], counts["d"])
	}

	// drain bookkeeping
	if r.inflight["h"] == 0 {
		t.Fatal("in-flight device reported drained")
	}
	for i := 0; i < counts["h"]; i++ {
		r.Complete("h")
	}
	if n := r.inflight["h"]; n != 0 {
		t.Fatalf("device with completed requests not drained: %d in flight", n)
	}

	// nothing serving: the placement is refused and counted
	r = NewRouter()
	r.Update([]RouteEntry{{ID: "x", Status: monitor.Impaired}})
	if _, _, err := r.DispatchAvoidingErr(""); err == nil {
		t.Fatal("dispatched with no serving device")
	}
	if _, sheds := r.Stats(); sheds != 1 {
		t.Fatalf("refusal not counted: %d", sheds)
	}
}

func TestRouterDispatchAvoiding(t *testing.T) {
	r := NewRouter()
	r.Update([]RouteEntry{
		{ID: "a", Status: monitor.Healthy},
		{ID: "b", Status: monitor.Healthy},
	})
	for i := 0; i < 50; i++ {
		id, _, err := r.DispatchAvoidingErr("a")
		if err != nil || id == "a" {
			t.Fatalf("hedge dispatch %d landed on the avoided device (id=%q err=%v)", i, id, err)
		}
	}
	// only the avoided device serves → no legal hedge placement
	r.Update([]RouteEntry{{ID: "a", Status: monitor.Healthy}})
	if id, _, err := r.DispatchAvoidingErr("a"); err == nil {
		t.Fatalf("hedge with no alternate dispatched to %q", id)
	}
}

// TestRouterPrefersIdleDevice pins idle-first placement: requests still in
// flight push the next one onto an idle device, every device busy falls back
// to the schedule slot at the cursor, and serial traffic walks the weighted
// schedule slot by slot.
func TestRouterPrefersIdleDevice(t *testing.T) {
	r := NewRouter()
	r.Update([]RouteEntry{{ID: "a", Status: monitor.Healthy}, {ID: "b", Status: monitor.Healthy}})
	var got []string
	for range 4 {
		id, _, err := r.DispatchAvoidingErr("")
		if err != nil {
			t.Fatal("shed with two serving devices")
		}
		got = append(got, id)
	}
	// a then b while a is busy; then both busy: the slots at the cursor,
	// b (slot 3) and a (slot 0)
	if want := "a b b a"; strings.Join(got, " ") != want {
		t.Fatalf("dispatches without completion = %v, want %s", got, want)
	}
	for _, id := range got {
		r.Complete(id)
	}

	r = NewRouter()
	r.Update([]RouteEntry{{ID: "a", Status: monitor.Healthy}, {ID: "b", Status: monitor.Healthy},
		{ID: "d", Status: monitor.Degraded}})
	got = got[:0]
	for range 10 {
		id, _, _ := r.DispatchAvoidingErr("")
		got = append(got, id)
		r.Complete(id)
	}
	if want := "a a b b d a a b b d"; strings.Join(got, " ") != want {
		t.Fatalf("serial dispatches = %v, want the schedule in order: %s", got, want)
	}

	// the avoided device is never the idle pick: with b busy and a avoided,
	// the retry still lands on d, the one idle device left
	id1, _, _ := r.DispatchAvoidingErr("") // a (slot 0), cursor at slot 1
	id2, _, _ := r.DispatchAvoidingErr("") // slot 1 is a, busy: b at slot 2
	if id1 != "a" || id2 != "b" {
		t.Fatalf("two concurrent dispatches = %s, %s; want a, b", id1, id2)
	}
	if id, _, err := r.DispatchAvoidingErr("a"); err != nil || id != "d" {
		t.Fatalf("retry avoiding a with b busy = %q (%v), want the idle d", id, err)
	}
}

// TestRouterConcurrentRouteAndUpdate hammers DispatchAvoidingErr/Complete from many
// goroutines while the serving set is concurrently rebuilt — the shape of
// traffic the serving frontend puts on the router. Run under -race (the
// fleet package is in RACE_PKGS) this is the regression test for the
// router's internal locking; the invariant checked here is that every
// dispatched ID is one the router was ever offered.
func TestRouterConcurrentRouteAndUpdate(t *testing.T) {
	r := NewRouter()
	sets := [][]RouteEntry{
		{{ID: "a", Status: monitor.Healthy}, {ID: "b", Status: monitor.Degraded}},
		{{ID: "b", Status: monitor.Healthy}},
		{{ID: "a", Status: monitor.Degraded}, {ID: "c", Status: monitor.Healthy}},
		{}, // full shed
	}
	r.Update(sets[0])
	known := map[string]bool{"a": true, "b": true, "c": true}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				avoid := ""
				if i%3 == 0 {
					avoid = "a"
				}
				if id, _, err := r.DispatchAvoidingErr(avoid); err == nil {
					if !known[id] || (avoid != "" && id == avoid) {
						panic(fmt.Sprintf("dispatched to %q (avoid=%q)", id, avoid))
					}
					r.Complete(id)
				}
			}
		}(w)
	}
	deadline := time.Now().Add(2 * time.Second)
	for i := 0; ; i++ {
		r.Update(sets[i%len(sets)])
		if i%100 == 0 {
			r.Stats()
			if routed, _ := r.Stats(); (routed > 5000 && i > 2000) || time.Now().After(deadline) {
				break
			}
		}
	}
	close(stop)
	wg.Wait()
	if routed, _ := r.Stats(); routed == 0 {
		t.Fatal("concurrent hammer routed nothing — test exercised no dispatches")
	}
}

// TestReportServingFaultTripsBreaker: serving-path failures feed the same
// breaker the monitoring path uses; enough of them quarantine the device
// without waiting for a monitoring tick.
func TestReportServingFaultTripsBreaker(t *testing.T) {
	devs := testFleet(2)
	cfg := testConfig()
	cfg.BreakerOpenAfter = 2
	sup, err := New(asDevices(devs), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	advance(devs, 1)
	if _, err := sup.Tick(context.Background()); err != nil {
		t.Fatal(err)
	}
	id := devs[0].id
	if sup.ReportServingFault(id) {
		t.Fatal("breaker tripped after a single serving fault with openAfter=2")
	}
	if !sup.ReportServingFault(id) {
		t.Fatal("second consecutive serving fault did not trip the breaker")
	}
	if sup.ReportServingFault(id) || sup.ReportServingFault("nope") {
		t.Fatal("a fault on an open breaker or an unknown device tripped again")
	}
	if _, ok := sup.StatusOf("nope"); ok {
		t.Fatal("an unknown device has a status")
	}
	for _, q := range sup.Quarantined() {
		if q == id {
			// quarantined device must be out of the schedule immediately
			for i := 0; i < 20; i++ {
				if got, _, err := sup.DispatchAvoidingErr(""); err == nil && got == id {
					t.Fatal("quarantined device still dispatched")
				}
			}
			return
		}
	}
	t.Fatalf("tripped device %s not quarantined: %v", id, sup.Quarantined())
}

// TestQuarantineAndProbeRecovery: a sensor-dead window trips the breaker;
// while open the device receives zero traffic and no full monitoring rounds
// (retry budgets are not burned); after cooldown a probe closes the breaker
// and the device eventually serves again.
func TestQuarantineAndProbeRecovery(t *testing.T) {
	devs := testFleet(3)
	devs[1].deadFrom, devs[1].deadTo = 3, 6
	sup, err := New(asDevices(devs), testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}

	var tripped, probed, closedAgain bool
	for round := 1; round <= 16; round++ {
		advance(devs, round)
		results, err := sup.Tick(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		r1 := results[1]
		if r1.Tripped {
			tripped = true
		}
		if r1.Probe {
			probed = true
			if r1.ProbeOK {
				closedAgain = true
			}
		}
		// routing invariant: traffic only ever lands on serving devices
		for i := 0; i < 8; i++ {
			id, _, err := sup.DispatchAvoidingErr("")
			if err != nil {
				continue
			}
			st, _ := sup.StatusOf(id)
			if st > monitor.Degraded {
				t.Fatalf("round %d: routed to %s with confirmed %s", round, id, st)
			}
			for _, q := range sup.Quarantined() {
				if id == q {
					t.Fatalf("round %d: routed to quarantined %s", round, id)
				}
			}
			sup.Complete(id)
		}
	}
	if !tripped {
		t.Fatal("sensor-dead window never tripped the breaker")
	}
	if !probed || !closedAgain {
		t.Fatalf("breaker never probed back closed: probed=%v closed=%v", probed, closedAgain)
	}
	// the monitoring path must be fully restored: device 1 serving again
	found := false
	for _, id := range sup.Serving() {
		found = found || id == devs[1].id
	}
	if !found {
		t.Fatalf("device with recovered sensor not serving: serving=%v quarantined=%v",
			sup.Serving(), sup.Quarantined())
	}
}

// TestRetireOnBudgetExhaustion: a device whose repairs always fail burns its
// lifetime budget and is permanently retired, while the rest of the fleet
// keeps serving.
func TestRetireOnBudgetExhaustion(t *testing.T) {
	devs := testFleet(2)
	devs[0].damageFrom = 2
	devs[0].failRepairs = true
	cfg := testConfig()
	cfg.RepairBudget = 4
	sup, err := New(asDevices(devs), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	retiredAt := 0
	for round := 1; round <= 14; round++ {
		advance(devs, round)
		results, err := sup.Tick(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if results[0].Retired && retiredAt == 0 {
			retiredAt = round
		}
		if retiredAt > 0 && round > retiredAt && (results[0].Repaired || results[0].Probe) {
			t.Fatalf("round %d: retired device still being worked on: %+v", round, results[0])
		}
	}
	if retiredAt == 0 {
		t.Fatal("budget-exhausted device never retired")
	}
	snap := sup.Snapshot()[devs[0].id]
	if snap.Budget != 0 || !snap.Retired {
		t.Fatalf("retired snapshot: %+v", snap)
	}
	// the healthy peer still serves alone
	if serving := sup.Serving(); len(serving) != 1 || serving[0] != devs[1].id {
		t.Fatalf("healthy peer not serving: %v", serving)
	}
}

// driveFleet runs a scripted 3-device scenario for `ticks` rounds against a
// journal store at path (path "" is a memory-only supervisor), compacting
// every compactEvery ticks (0: never — the scenario stays far below the
// default size trigger, so the WAL just grows), crashing and resuming the
// supervisor after every round in crashAfter (the devices — the hardware —
// survive each crash). It returns the per-round confirmed-status matrix and
// the final supervisor.
func driveFleet(t *testing.T, devs []*fakeDevice, path string, ticks, compactEvery int, crashAfter map[int]bool, corruptTail bool) ([][]monitor.Status, *Supervisor) {
	t.Helper()
	cfg := testConfig()
	cfg.CompactEvery = compactEvery
	var st *journal.Store
	if path != "" {
		var err error
		if st, _, err = journal.OpenStore(path, journal.StoreConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	sup, err := New(asDevices(devs), cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	var matrix [][]monitor.Status
	for round := 1; round <= ticks; round++ {
		advance(devs, round)
		results, err := sup.Tick(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		row := make([]monitor.Status, len(results))
		for i, r := range results {
			row[i] = r.Confirmed
		}
		matrix = append(matrix, row)

		if crashAfter[round] {
			// crash: the supervisor process dies...
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if corruptTail {
				// ...possibly mid-write: a torn, garbage tail on the journal
				f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write([]byte{0xA7, 0x13, 0x37, 0xde, 0xad}); err != nil {
					t.Fatal(err)
				}
				f.Close()
			}
			// ...and a fresh process recovers the store
			var rec journal.Recovered
			st, rec, err = journal.OpenStore(path, journal.StoreConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if corruptTail && rec.Truncated == 0 {
				t.Fatal("corrupt tail not truncated on reopen")
			}
			resumed, err := Resume(asDevices(devs), cfg, st, rec)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Round() != round {
				t.Fatalf("resumed at round %d, crashed after %d", resumed.Round(), round)
			}
			// resume fidelity: the replayed fleet must equal the crashed one
			if !reflect.DeepEqual(resumed.Snapshot(), sup.Snapshot()) {
				t.Fatalf("replayed snapshot diverges after round %d:\n%+v\nvs\n%+v",
					round, resumed.Snapshot(), sup.Snapshot())
			}
			sup = resumed
		}
	}
	return matrix, sup
}

// scriptedScenario builds the shared crash-equivalence scenario: damage on
// one device, a sensor-dead window on another, a quiet third.
func scriptedScenario() []*fakeDevice {
	devs := testFleet(3)
	devs[0].damageFrom = 4
	devs[1].deadFrom, devs[1].deadTo = 7, 9
	return devs
}

// TestCrashRestartEquivalence is the PR's core property test: for every
// crash point k, killing the supervisor after round k and replaying its
// journal must yield exactly the confirmed-status sequence and final
// durable state of an uninterrupted run.
func TestCrashRestartEquivalence(t *testing.T) {
	const ticks = 14
	base, baseSup := driveFleet(t, scriptedScenario(),
		filepath.Join(t.TempDir(), "base.wal"), ticks, 0, nil, false)
	baseSnap := baseSup.Snapshot()

	for k := 1; k < ticks; k++ {
		k := k
		t.Run(fmt.Sprintf("crashAfter=%d", k), func(t *testing.T) {
			got, sup := driveFleet(t, scriptedScenario(),
				filepath.Join(t.TempDir(), "crash.wal"), ticks, 0, map[int]bool{k: true}, k%2 == 0)
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("confirmed-status sequences diverge:\nuninterrupted %v\ncrashed       %v", base, got)
			}
			snap := sup.Snapshot()
			if !reflect.DeepEqual(snap, baseSnap) {
				t.Fatalf("final durable state diverges:\n%+v\nvs\n%+v", snap, baseSnap)
			}
		})
	}
}

// TestDoubleCrash: two crashes in one campaign, both with corrupt tails.
func TestDoubleCrash(t *testing.T) {
	const ticks = 14
	base, _ := driveFleet(t, scriptedScenario(),
		filepath.Join(t.TempDir(), "base.wal"), ticks, 0, nil, false)
	got, _ := driveFleet(t, scriptedScenario(),
		filepath.Join(t.TempDir(), "crash2.wal"), ticks, 0, map[int]bool{5: true, 10: true}, true)
	if !reflect.DeepEqual(got, base) {
		t.Fatalf("double-crash run diverged:\n%v\nvs\n%v", base, got)
	}
}

// TestResumeRejectsWrongReference: a journal written for one reference model
// must not silently resume against another.
func TestResumeRejectsWrongReference(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.wal")
	devs := testFleet(2)
	st, _, err := journal.OpenStore(path, journal.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sup, err := New(asDevices(devs), testConfig(), st)
	if err != nil {
		t.Fatal(err)
	}
	advance(devs, 1)
	if _, err := sup.Tick(context.Background()); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// "restart" with device 0 pointing at a different model
	devs[0].net = models.MLP(rng.New(99), 16, []int{12}, 5)
	st2, rec, err := journal.OpenStore(path, journal.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := Resume(asDevices(devs), testConfig(), st2, rec); err == nil {
		t.Fatal("resume accepted a journal for a different reference model")
	}
}

func TestReplayRecordsRejectsGarbage(t *testing.T) {
	replay := func(record string) (map[string]DeviceSnapshot, int, error) {
		return ReplayRecovered(journal.Recovered{Records: [][]byte{[]byte(record)}})
	}
	tick := func(device string) string { return `{"type":"tick","round":1,"devices":[` + device + `]}` }
	for name, record := range map[string]string{
		"unparseable":            "not json",
		"negative round":         `{"type":"tick","round":-1}`,
		"no device name":         tick(`{"device":""}`),
		"negative budget":        tick(`{"device":"a","budget":-4}`),
		"bad health state":       tick(`{"device":"a","state":{"confirmed":9}}`),
		"decision log too long":  tick(`{"device":"a","decisions":[` + strings.Repeat(`{"round":1,"strategy":"scrub"},`, maxDecisionLog) + `{"round":1,"strategy":"scrub"}]}`),
		"decision round":         tick(`{"device":"a","decisions":[{"round":-1,"strategy":"scrub"}]}`),
		"decision strategy":      tick(`{"device":"a","decisions":[{"round":1}]}`),
		"decision cost":          tick(`{"device":"a","decisions":[{"round":1,"strategy":"scrub","cost":-1}]}`),
		"breaker state":          tick(`{"device":"a","breaker":{"state":7}}`),
		"negative breaker count": tick(`{"device":"a","breaker":{"faults":-1}}`),
	} {
		if _, _, err := replay(record); err == nil {
			t.Errorf("%s: record accepted", name)
		}
	}
	if _, _, err := ReplayRecovered(journal.Recovered{Snapshot: []byte("not json")}); err == nil || !strings.Contains(err.Error(), "snapshot generation") {
		t.Errorf("unparseable snapshot generation: %v", err)
	}
	// unknown types are skipped, not fatal
	snaps, round, err := replay(`{"type":"future-thing","round":9}`)
	if err != nil || round != 0 || len(snaps) != 0 {
		t.Fatalf("unknown record type: snaps=%d round=%d err=%v", len(snaps), round, err)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	for name, spoil := range map[string]func(*Config){
		"negative Workers":      func(c *Config) { c.Workers = -1 },
		"zero BreakerOpenAfter": func(c *Config) { c.BreakerOpenAfter = 0 },
		"zero BreakerCooldown":  func(c *Config) { c.BreakerCooldown = 0 },
		"zero RepairBudget":     func(c *Config) { c.RepairBudget = 0 },
		"negative CompactEvery": func(c *Config) { c.CompactEvery = -1 },
		"invalid health config": func(c *Config) { c.Health.EscalateAfter = 0 },
	} {
		bad := DefaultConfig()
		spoil(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
		if _, err := New(asDevices(testFleet(1)), bad, nil); err == nil {
			t.Errorf("New accepted a config with %s", name)
		}
	}
	if _, err := New(nil, DefaultConfig(), nil); err == nil {
		t.Fatal("empty fleet accepted")
	}
	devs := testFleet(2)
	devs[1].id = devs[0].id
	if _, err := New(asDevices(devs), testConfig(), nil); err == nil {
		t.Fatal("duplicate device IDs accepted")
	}
}

// probsOf is net's softmax readout of x through a freshly compiled inference
// plan: a tensor of its own, which the caller may mutate.
func probsOf(net *nn.Network, x *tensor.Tensor) *tensor.Tensor {
	return engine.MustCompile(net, engine.Options{}).Probs(x)
}

func TestSnapshotValidateAndBreakerNames(t *testing.T) {
	if err := (DeviceSnapshot{Round: -1}).Validate(); err == nil {
		t.Error("negative snapshot round accepted")
	}
	for s, want := range map[BreakerState]string{BreakerClosed: "closed", BreakerOpen: "open", BreakerHalfOpen: "half-open", 7: "BreakerState(7)"} {
		if got := s.String(); got != want {
			t.Errorf("BreakerState %d is %q, want %q", int(s), got, want)
		}
	}
}
