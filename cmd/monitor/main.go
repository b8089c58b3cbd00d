// Command monitor demonstrates the end-to-end deployment the paper targets:
// a trained model is programmed onto simulated ReRAM crossbars, the
// accelerator ages in the field (drift + soft errors + late-life stuck-at
// faults), and a concurrent-test monitor tracks its health, estimates
// accuracy from the Fig.-8 calibration curve, and recommends repairs. When
// the monitor asks for reprogramming the demo performs it and shows the
// recovery.
//
// The monitor is armed with C-TP patterns: Table III shows they have the
// highest detection rate, and their peaked golden confidences respond to
// uniform logit shrinkage (the signature of pure resistance drift, where
// every weight decays multiplicatively) — a fault class that O-TP's
// uniform-golden SDC-A criterion is structurally blind to. O-TP remains the
// better accuracy estimator; this demo trades that for drift coverage.
//
// With -soak the command instead runs the randomized fault-injection
// campaign harness against the hardened runtime and reports the robustness
// scorecard, exiting non-zero if the acceptance gate fails.
//
// With -fleet-soak it runs the fleet supervisor crash/restart soak: each
// campaign drives an N-device fleet with journaled supervisor state, kills
// and replays the supervisor mid-campaign (corrupting the journal tail),
// and gates on resume fidelity against an uninterrupted same-seed run.
//
// With -lifetime-soak it runs the three-arm repair-ladder lifetime soak:
// the same seeded fleet campaign with the pluggable escalation ladder
// (scrub → remap → retrain), with the retrain-only control, and
// crash-replayed from the journal — gated on the ladder beating the control
// economically at an equal-or-better fidelity floor with exact decision
// parity across crashes.
//
// With -serve-soak it runs the serving-frontend chaos soak: concurrent
// client traffic with injected slow readouts, mid-request device crashes and
// deadline storms, gated on zero hung requests, zero silent drops, a bounded
// p99 against a no-chaos baseline, and zero leaked goroutines.
//
// With -net-soak it runs the network-tier chaos soak: seeded multi-tenant
// HTTP campaigns against the sharded serving tier over a live loopback
// listener, with device chaos and a mid-campaign graceful shard drain,
// gated on zero hung calls, exact accounting (admitted == terminal typed
// outcomes), post-drain liveness, a bounded p99 and zero leaked goroutines.
// -net-requests sets the per-campaign request count (the full gate runs
// ~10⁶; the smoke default stays CI-sized).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"reramtest/internal/campaign"
	"reramtest/internal/engine"
	"reramtest/internal/experiments"
	"reramtest/internal/fleet"
	"reramtest/internal/health"
	"reramtest/internal/monitor"
	"reramtest/internal/nn"
	"reramtest/internal/repair"
	"reramtest/internal/reram"
	"reramtest/internal/rng"
	"reramtest/internal/tensor"
)

func main() {
	hoursPerStep := flag.Float64("step", 200, "simulated hours between checks")
	steps := flag.Int("steps", 8, "number of monitoring rounds")
	analog := flag.Bool("analog", false, "run checks through the full DAC/ADC analog path (slower)")
	soak := flag.Bool("soak", false, "run the randomized fault-injection soak campaigns instead of the demo")
	fleetSoak := flag.Bool("fleet-soak", false, "run the fleet supervisor crash/restart soak instead of the demo")
	lifetimeSoak := flag.Bool("lifetime-soak", false, "run the three-arm repair-ladder lifetime soak instead of the demo")
	serveSoak := flag.Bool("serve-soak", false, "run the serving-frontend chaos soak instead of the demo")
	netSoak := flag.Bool("net-soak", false, "run the network-tier chaos soak instead of the demo")
	crashSoak := flag.Bool("crash-soak", false, "run the durable-state crash/disk-fault torture matrix instead of the demo")
	cost := flag.Bool("cost", false, "run a plant-scale workload and print the per-class hardware cost breakdown")
	netRequests := flag.Int("net-requests", 0, "net-soak: requests per campaign (0 = smoke default)")
	campaigns := flag.Int("campaigns", 20, "soak: number of seeded campaigns")
	rounds := flag.Int("rounds", 40, "soak: monitoring rounds per campaign")
	seed := flag.Int64("seed", 1000, "soak: base seed (campaign i uses seed+i)")
	minRecovery := flag.Float64("min-recovery", 0.8, "soak: gate threshold on repair-recovery rate")
	devices := flag.Int("devices", 4, "fleet-soak/serve-soak: accelerators per fleet")
	flag.Parse()

	if *fleetSoak {
		os.Exit(runFleetSoak(*seed, *campaigns, *rounds, *devices))
	}
	if *lifetimeSoak {
		os.Exit(runLifetimeSoak(*seed, *campaigns, *rounds, *devices))
	}
	if *serveSoak {
		os.Exit(runServeSoak(*seed, *campaigns, *devices))
	}
	if *netSoak {
		os.Exit(runNetSoak(*seed, *campaigns, *netRequests))
	}
	if *crashSoak {
		os.Exit(runCrashSoak(*seed, *campaigns, *devices))
	}
	if *cost {
		os.Exit(runCost(os.Stdout, *seed, *rounds))
	}
	if *soak {
		os.Exit(runSoak(*seed, *campaigns, *rounds, *minRecovery))
	}

	env, err := experiments.NewEnv(experiments.DefaultScale(), os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "monitor:", err)
		os.Exit(1)
	}
	net := env.LeNet
	patterns := env.PatternsDefault("lenet5", "ctp")

	// calibration curve: confidence distance → accuracy (Fig. 8 data)
	fig8 := env.Fig8()
	dist, acc := fig8.CalibrationCurve("ctp")
	calib := make([]monitor.CalibPoint, len(dist))
	for i := range dist {
		calib[i] = monitor.CalibPoint{Distance: dist[i], Accuracy: acc[i]}
	}

	cfg := reram.DefaultConfig()
	cfg.Device.ProgramSigma = 0.05
	cfg.Device.DriftRate = 0.0003
	cfg.Device.DriftJitter = 0.004
	cfg.Device.SoftErrorRate = 2e-7
	accel := reram.NewAccelerator(net, cfg, 42)
	fmt.Printf("accelerator: %d crossbar tiles of %dx%d, DAC=%d-bit ADC=%d-bit\n",
		accel.TileCount(), cfg.TileRows, cfg.TileCols, cfg.DACBits, cfg.ADCBits)

	mon, err := monitor.New(net, patterns, calib, monitor.DefaultConfig())
	if err != nil {
		fmt.Fprintln(os.Stderr, "monitor:", err)
		os.Exit(1)
	}
	fmt.Printf("monitor armed with %d C-TP patterns\n\n", mon.PatternCount())

	// readout refreshes the cached weight-level view and returns the batched
	// inference plan bound to it; the whole demo shares one set of workspaces
	roEng := engine.MustCompile(accel.RefreshReadout(), engine.Options{})
	readout := func() *engine.Engine {
		accel.RefreshReadout()
		return roEng
	}
	infer := func() monitor.Infer {
		if *analog {
			return func(x *tensor.Tensor) *tensor.Tensor {
				return nn.Softmax(accel.Infer(x))
			}
		}
		return func(x *tensor.Tensor) *tensor.Tensor {
			return readout().Probs(x)
		}
	}()

	eval := env.DigitsTest.Head(300)
	for s := 0; s < *steps; s++ {
		rep := mon.Check(infer)
		trueAcc := readout().Accuracy(eval.X, eval.Y, 64)
		fmt.Printf("t=%6.0fh %s | true accuracy %.1f%%\n", accel.Hours(), rep, 100*trueAcc)

		if rep.Status >= monitor.Impaired {
			fmt.Printf("         → executing repair: reprogramming all crossbars\n")
			accel.Reprogram()
			rep = mon.Check(infer)
			fmt.Printf("         after repair: %s\n", rep)
		}
		// age the device; inject a burst of stuck-at faults late in life
		accel.AdvanceTime(*hoursPerStep)
		if s == *steps-3 {
			fmt.Println("         (injecting endurance stuck-at faults: 0.2% SA0, 0.1% SA1)")
			accel.InjectStuckAt(0.002, 0.001)
		}
	}
	slope, summary := mon.Trend()
	fmt.Printf("\ndistance trend: slope=%.5f per round, %s\n", slope, summary)
}

// costDevice adapts a campaign Plant to fleet.Device.
type costDevice struct{ *campaign.Plant }

func (costDevice) ID() string                  { return "plant" }
func (d costDevice) Repairer() health.Repairer { return d.Plant }

// runCost drives one plant through a serving + monitoring + repair lifetime
// and prints the accumulated hardware cost split by attribution class — the
// telemetry the fleet journals per device and /statsz serves per tier. Rounds
// of serving traffic interleave with concurrent-test checks; stuck-at faults
// land mid-life so a repair episode runs and its measured (not sticker) cost
// shows up under the repair class. Every call goes through the plant's
// fleet.Station, which books each charge to the class of the path that made
// it.
func runCost(w io.Writer, seed int64, rounds int) int {
	pcfg := campaign.DefaultPlantConfig()
	p := campaign.NewPlant(seed, pcfg)
	st := fleet.NewStation(costDevice{p})
	mon, err := monitor.New(p.Reference(), p.Patterns(), nil, monitor.DefaultConfig())
	if err != nil {
		fmt.Fprintln(os.Stderr, "cost:", err)
		return 1
	}
	hcfg := campaign.DefaultConfig().Health
	rt, err := health.New(mon, hcfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cost:", err)
		return 1
	}
	fmt.Fprintf(w, "cost meter: MLP %d→%v→%d on %d×%d tiles, %d rounds, seed %d\n",
		pcfg.In, pcfg.Hidden, pcfg.Classes, pcfg.Tile, pcfg.Tile, rounds, seed)
	traffic := tensor.RandUniform(rng.New(seed+1), 0, 1, 32, pcfg.In)
	var episodes []health.Episode
	for r := 1; r <= rounds; r++ {
		p.SetRound(r)
		st.ServeInfer(traffic) // serving class
		rt.Check(st.Infer())   // monitor class
		p.Accelerator().AdvanceTime(200)
		if r == rounds/2 {
			fmt.Fprintf(w, "round %d: injecting stuck-at faults (0.8%% SA0, 0.4%% SA1)\n", r)
			p.Accelerator().InjectStuckAt(0.008, 0.004)
		}
		if rt.Confirmed() >= monitor.Impaired {
			ep := rt.Supervise(context.Background(), st.Infer(), st.Repairer(), hcfg.MaxRepairAttempts)
			episodes = append(episodes, ep)
			fmt.Fprintf(w, "round %d: repair episode, %d attempt(s), recovered=%v\n",
				r, len(ep.Attempts), ep.Recovered)
		}
	}

	b := st.CostCounter().Snapshot()
	fmt.Fprintf(w, "\n%-10s %14s %12s %12s %14s %14s %16s %14s\n", "class",
		"cycles", "DAC", "ADC", "xbar reads", "xbar writes", "energy (fJ)", "buffer B")
	row := func(name string, c reram.Cost) {
		fmt.Fprintf(w, "%-10s %14d %12d %12d %14d %14d %16d %14d\n", name,
			c.ComputeCycles, c.DACConversions, c.ADCConversions,
			c.CrossbarReads, c.CrossbarWrites, c.EnergyFJ, c.BufferBytes)
	}
	row("serving", b.Serving)
	row("monitor", b.Monitor)
	row("repair", b.Repair)
	row("total", b.Total())
	for i, ep := range episodes {
		fmt.Fprintf(w, "\nepisode %d: sticker %d budget unit(s), measured %d cycles / %d fJ\n",
			i+1, ep.CostSpent, ep.Measured.ComputeCycles, ep.Measured.EnergyFJ)
	}
	if b.Total().IsZero() {
		fmt.Fprintln(os.Stderr, "\ncost: metered workload accumulated zero cost")
		return 1
	}
	return 0
}

// runSoak executes the seeded campaign fleet and prints the scorecard.
// Returns the process exit code: 0 when the acceptance gate holds.
func runSoak(seed int64, campaigns, rounds int, minRecovery float64) int {
	cfg := campaign.DefaultConfig()
	cfg.Rounds = rounds
	fmt.Printf("soak: %d campaigns × %d rounds, base seed %d\n", campaigns, rounds, seed)
	fmt.Printf("plant: MLP %d→%v→%d on %d×%d crossbar tiles\n",
		cfg.Plant.In, cfg.Plant.Hidden, cfg.Plant.Classes, cfg.Plant.Tile, cfg.Plant.Tile)
	results, err := campaign.RunMany(seed, campaigns, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "soak:", err)
		return 1
	}
	sc := campaign.Score(results, cfg.FidelityBudget)
	fmt.Printf("\n%s\n", sc)
	if err := sc.Gate(minRecovery); err != nil {
		fmt.Fprintln(os.Stderr, "\nGATE FAILED:", err)
		return 1
	}
	fmt.Println("\ngate: PASS")
	return 0
}

// runServeSoak executes the seeded serving chaos campaigns and prints one
// verdict line per campaign. Each campaign runs twice internally — a
// no-chaos baseline to calibrate the latency envelope, then the chaos pass —
// and gates on zero hung requests, zero silent drops, zero untyped errors, a
// bounded p99 and zero leaked goroutines. Returns the process exit code: 0
// when every campaign's gate holds.
func runServeSoak(seed int64, campaigns, devices int) int {
	cfg := campaign.DefaultServeSoakConfig()
	cfg.Devices = devices
	fmt.Printf("serve soak: %d campaigns × %d rounds × %d devices × %d req/round, base seed %d\n",
		campaigns, cfg.Rounds, cfg.Devices, cfg.RequestsPerRound, seed)
	fmt.Printf("chaos: slow %.0f%%@%v, crash %.1f%%, deadline storm every %d rounds @%v\n",
		100*cfg.SlowP, cfg.SlowDelay, 100*cfg.CrashP, cfg.StormEvery, cfg.StormDeadline)
	failed := 0
	for i := 0; i < campaigns; i++ {
		res, err := campaign.RunServeSoak(seed+int64(i), cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve soak:", err)
			return 1
		}
		verdict := "PASS"
		fails := res.Failures()
		if len(fails) != 0 {
			verdict = "FAIL"
			failed++
		}
		fmt.Printf("seed %d: %s | served %d/%d admitted (degraded %d, hedged %d, retried %d) "+
			"| deadline %d overload %d no-device %d faulted %d | slow %d crash %d storms %d ticks %d "+
			"| p99 %v (baseline %v, bound %v)\n",
			res.Seed, verdict, res.Stats.Served, res.Stats.Admitted, res.Stats.ServedDegraded,
			res.Stats.Hedges, res.Stats.Retries, res.Stats.Deadlines, res.Stats.Overloads,
			res.Stats.NoDevices, res.Stats.FaultFailures, res.InjectedSlows, res.InjectedCrashes,
			res.StormRounds, res.Ticks, res.ChaosP99, res.BaselineP99, res.P99Bound)
		for _, f := range fails {
			fmt.Printf("         gate violation: %s\n", f)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "\nGATE FAILED: %d/%d campaigns violated the serving contract\n", failed, campaigns)
		return 1
	}
	fmt.Println("\ngate: PASS")
	return 0
}

// runNetSoak executes the seeded network-tier chaos campaigns and prints one
// verdict line per campaign. Each campaign stands the sharded tier up behind
// a live loopback listener twice — a clean baseline pass to calibrate the
// latency envelope, then the chaos pass with device injections and a
// graceful shard-0 drain at the midpoint — and gates on zero hung calls,
// exact typed accounting, post-drain liveness, a bounded p99 and zero leaked
// goroutines. Returns the process exit code: 0 when every campaign's gate
// holds.
func runNetSoak(seed int64, campaigns, requests int) int {
	if campaigns < 1 {
		fmt.Fprintln(os.Stderr, "GATE FAILED: nothing exercised (campaigns=0)")
		return 1
	}
	cfg := campaign.DefaultNetSoakConfig()
	if requests > 0 {
		cfg.Load.Requests = requests
	}
	fmt.Printf("net soak: %d campaigns × %d requests over %d shards × %d devices, base seed %d\n",
		campaigns, cfg.Load.Requests, cfg.Shards, cfg.DevicesPerShard, seed)
	fmt.Printf("chaos: slow %.0f%%@%v, crash %.1f%%, deadline storm every %d waves @%dms, shard-0 drains at %.0f%%\n",
		100*cfg.SlowP, cfg.SlowDelay, 100*cfg.CrashP, cfg.Load.StormEvery,
		cfg.Load.StormDeadlineMs, 100*cfg.DrainAfter)
	failed := 0
	for i := 0; i < campaigns; i++ {
		res, err := campaign.RunNetSoak(seed+int64(i), cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "net soak:", err)
			return 1
		}
		verdict := "PASS"
		fails := res.Failures()
		if len(fails) != 0 {
			verdict = "FAIL"
			failed++
		}
		fmt.Printf("seed %d: %s | ok %d/%d sent (degraded %d, post-drain %d) "+
			"| invalid %d quota %d deadline %d overload %d no-device %d faulted %d "+
			"| retries %d drains %d (auto %d) | %.0f req/s | p99 %v (baseline %v, bound %v)\n",
			res.Seed, verdict, res.Chaos.OK, res.Chaos.Sent, res.Chaos.Degraded, res.PostDrainOK,
			res.Stats.Invalid, res.Stats.QuotaRejected, res.Stats.Deadlines, res.Stats.Overloaded,
			res.Stats.Unavailable, res.Stats.Faulted,
			res.Stats.Retries, res.Stats.Drains, res.Stats.AutoDrains,
			res.Chaos.Throughput, res.ChaosP99, res.BaselineP99, res.P99Bound)
		for _, f := range fails {
			fmt.Printf("         gate violation: %s\n", f)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "\nGATE FAILED: %d/%d campaigns violated the network-tier contract\n", failed, campaigns)
		return 1
	}
	fmt.Println("\ngate: PASS")
	return 0
}

// runLifetimeSoak executes the three-arm repair-ladder lifetime soak for
// each seed: the escalation-ladder fleet campaign (scrub → remap → retrain,
// costs charged per strategy), the retrain-only control in the same cost
// units, and the ladder campaign crash-replayed from its journal. The gate
// demands the ladder beat the control on budget spend and retirements at an
// equal-or-better fidelity floor, zero untyped strategy errors, and exact
// crash/restart parity on the journaled strategy decisions. Returns the
// process exit code: 0 when every seed's gate holds.
func runLifetimeSoak(seed int64, campaigns, rounds, devices int) int {
	cfg := campaign.DefaultLifetimeSoakConfig()
	cfg.Fleet.Rounds = rounds
	cfg.Fleet.Devices = devices
	fmt.Printf("lifetime soak: %d campaigns × %d rounds × %d devices, base seed %d\n",
		campaigns, rounds, devices, seed)
	fmt.Printf("ladder scrub(%d) → remap(%d) → retrain(%d), budget %d units/device; crashes after rounds %v\n",
		repair.CostScrub, repair.CostRemap, repair.CostRetrain,
		cfg.Fleet.Fleet.RepairBudget, cfg.Fleet.CrashAfter)
	failed, replays := 0, 0
	for i := 0; i < campaigns; i++ {
		res, err := campaign.RunLifetimeSoak(seed+int64(i), cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lifetime soak:", err)
			return 1
		}
		fmt.Printf("\n%s", res)
		if !res.Pass() {
			failed++
		}
		replays += res.Crashed.Replays
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "\nGATE FAILED: %d/%d campaigns violated the lifetime contract\n", failed, campaigns)
		return 1
	}
	// a soak whose parity arm never crashed (campaigns=0, or rounds short of
	// the crash schedule) proved nothing about decision durability
	if replays == 0 {
		fmt.Fprintln(os.Stderr, "\nGATE FAILED: nothing exercised (no crash/replay cycles ran)")
		return 1
	}
	fmt.Println("\ngate: PASS")
	return 0
}

// runFleetSoak executes the seeded fleet crash-equivalence campaigns and
// prints the fleet scorecard. Each campaign runs twice from the same seed —
// uninterrupted and with mid-campaign supervisor crashes (torn journal
// tails included) — and the gate demands zero divergence between the two.
// Returns the process exit code: 0 when the gate holds.
// runCrashSoak executes the durable-state torture matrix: every
// (crash point × disk fault) cell runs a seeded fleet campaign over the
// snapshot-compacting journal store, kills it, injects the fault, recovers,
// and gates on bit-identical state, bounded WAL size and zero writes that
// were acknowledged and then lost. One matrix runs per campaign seed.
func runCrashSoak(seed int64, campaigns, devices int) int {
	cfg := campaign.DefaultCrashSoakConfig()
	cfg.Devices = devices
	faults := campaign.AllFaults()
	fmt.Printf("crash soak: %d matrices × (%d crash points × %d faults), %d devices × %d rounds, base seed %d\n",
		campaigns, len(cfg.CrashPoints), len(faults), cfg.Devices, cfg.Rounds, seed)
	fmt.Printf("compaction every %d rounds or %d bytes; WAL gated at 2×threshold + one record\n",
		cfg.Fleet.CompactEvery, cfg.CompactBytes)
	exit := 0
	for i := 0; i < campaigns; i++ {
		res, err := campaign.RunCrashSoak(seed+int64(i), cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "crash soak:", err)
			return 1
		}
		identical, degraded := 0, 0
		for _, c := range res.Cells {
			if c.StateMatch {
				identical++
			}
			if c.Degraded {
				degraded++
			}
		}
		fmt.Printf("seed %d: %d/%d cells recovered bit-identical, %d degraded to memory-only, WAL peak %d of %d bytes\n",
			res.Seed, identical, len(res.Cells), degraded, res.MaxWALBytes, res.WALBound)
		for _, f := range res.Failures() {
			fmt.Fprintln(os.Stderr, "  FAIL:", f)
			exit = 1
		}
	}
	if exit != 0 {
		fmt.Fprintln(os.Stderr, "\nGATE FAILED: durable-state matrix has failing cells")
		return exit
	}
	fmt.Println("\ngate: PASS")
	return 0
}

func runFleetSoak(seed int64, campaigns, rounds, devices int) int {
	cfg := campaign.DefaultFleetSoakConfig()
	cfg.Rounds = rounds
	cfg.Devices = devices
	fmt.Printf("fleet soak: %d campaigns × %d rounds × %d devices, base seed %d\n",
		campaigns, rounds, devices, seed)
	fmt.Printf("crashes after rounds %v (journal tail corrupted), shower at round %d\n",
		cfg.CrashAfter, cfg.ShowerRound)
	pairs := make([]campaign.FleetPairResult, 0, campaigns)
	for i := 0; i < campaigns; i++ {
		pair, err := campaign.RunFleetPair(seed+int64(i), cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fleet soak:", err)
			return 1
		}
		pairs = append(pairs, pair)
	}
	sc := campaign.ScoreFleet(pairs)
	fmt.Printf("\n%s\n", sc)
	if err := sc.Gate(); err != nil {
		fmt.Fprintln(os.Stderr, "\nGATE FAILED:", err)
		return 1
	}
	fmt.Println("\ngate: PASS")
	return 0
}
