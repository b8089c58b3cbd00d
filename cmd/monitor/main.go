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
// With -soak NAME the command instead runs -campaigns seeded campaigns
// (seeds -seed, -seed+1, …) of one internal/campaign soak, prints its
// report, then one "gate violation:" line per violated gate and "gate: PASS"
// or GATE FAILED; it exits 0 only when every gate held and at least one
// campaign ran. The soaks: campaign (fault-injection campaigns against the
// hardened single-device runtime), fleet (supervisor crash/restart
// equivalence), lifetime (the three-arm repair-ladder economics), net (the
// network-tier chaos soak; -net-requests sets its requests per campaign,
// ~10⁶ for the full gate) and crash (the durable-state torture matrix).
//
// With -cost it drives one plant through a serving + monitoring + repair
// lifetime and prints the per-class hardware cost ledger.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"reramtest/internal/campaign"
	"reramtest/internal/engine"
	"reramtest/internal/experiments"
	"reramtest/internal/fleet"
	"reramtest/internal/health"
	"reramtest/internal/hwcost"
	"reramtest/internal/monitor"
	"reramtest/internal/nn"
	"reramtest/internal/repair"
	"reramtest/internal/reram"
	"reramtest/internal/rng"
	"reramtest/internal/tensor"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args and runs one mode: a soak, the cost ledger or the aging
// demo. It returns the process exit code: 2 for a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("monitor", flag.ContinueOnError)
	fs.SetOutput(stderr)
	hoursPerStep := fs.Float64("step", 200, "demo: simulated hours between checks")
	steps := fs.Int("steps", 8, "demo: number of monitoring rounds")
	analog := fs.Bool("analog", false, "demo: run checks through the full DAC/ADC analog path (slower)")
	soak := fs.String("soak", "", "run the named soak instead of the demo: "+strings.Join(soakNames(), "|"))
	cost := fs.Bool("cost", false, "run a plant-scale workload and print the per-class hardware cost breakdown")
	var o soakFlags
	fs.IntVar(&o.netRequests, "net-requests", 0, "net soak: requests per campaign (0 = smoke default)")
	fs.IntVar(&o.campaigns, "campaigns", 20, "soak: number of seeded campaigns")
	fs.IntVar(&o.rounds, "rounds", 40, "campaign, fleet and lifetime soaks, and -cost: rounds per campaign")
	fs.Int64Var(&o.seed, "seed", 1000, "soak and -cost: base seed (campaign i uses seed+i)")
	fs.IntVar(&o.devices, "devices", 4, "fleet, lifetime and crash soaks: accelerators per fleet")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	switch {
	case *cost && *soak != "":
		fmt.Fprintln(stderr, "monitor: -cost and -soak are separate modes; give one")
		return 2
	case *cost:
		return runCost(stdout, stderr, o.seed, o.rounds)
	case *soak != "":
		return runSoak(stdout, stderr, *soak, o)
	}
	return demo(stdout, stderr, *hoursPerStep, *steps, *analog)
}

// soakFlags are the flags the soaks read.
type soakFlags struct {
	seed                                    int64
	campaigns, rounds, devices, netRequests int
}

// soaks are the -soak harnesses by name. Each prints its header and report
// to w and returns every violated gate; runSoak owns everything else.
var soaks = map[string]func(w io.Writer, o soakFlags) ([]string, error){
	"campaign": campaignSoak, "fleet": fleetSoak, "lifetime": lifetimeSoak,
	"net": netSoak, "crash": crashSoak,
}

func soakNames() []string {
	names := make([]string, 0, len(soaks))
	for name := range soaks {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// runSoak runs the named soak and returns the process exit code: 2 for an
// unknown name, 1 when nothing ran, the soak failed to run or a gate was
// violated, 0 when every gate held.
func runSoak(stdout, stderr io.Writer, name string, o soakFlags) int {
	soak, ok := soaks[name]
	if !ok {
		fmt.Fprintf(stderr, "monitor: unknown soak %q; valid: %s\n", name, strings.Join(soakNames(), ", "))
		return 2
	}
	if o.campaigns < 1 {
		fmt.Fprintf(stderr, "GATE FAILED: nothing exercised (campaigns=%d)\n", o.campaigns)
		return 1
	}
	fails, err := soak(stdout, o)
	if err != nil {
		fmt.Fprintf(stderr, "%s soak: %v\n", name, err)
		return 1
	}
	for _, f := range fails {
		fmt.Fprintln(stdout, "gate violation:", f)
	}
	if len(fails) > 0 {
		fmt.Fprintf(stderr, "\nGATE FAILED: %d gate violation(s)\n", len(fails))
		return 1
	}
	fmt.Fprintln(stdout, "\ngate: PASS")
	return 0
}

// perSeed runs one campaign per seed, prints each result after sep and
// returns every violated gate prefixed with its seed.
func perSeed[C any, R interface {
	fmt.Stringer
	Failures() []string
}](w io.Writer, o soakFlags, sep string, run func(int64, C) (R, error), cfg C) ([]string, error) {
	var fails []string
	for i := 0; i < o.campaigns; i++ {
		seed := o.seed + int64(i)
		res, err := run(seed, cfg)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "%s%s\n", sep, res)
		for _, f := range res.Failures() {
			fails = append(fails, fmt.Sprintf("seed %d: %s", seed, f))
		}
	}
	return fails, nil
}

// campaignSoak runs the single-device campaigns and prints the robustness
// scorecard.
func campaignSoak(w io.Writer, o soakFlags) ([]string, error) {
	cfg := campaign.DefaultConfig()
	cfg.Rounds = o.rounds
	fmt.Fprintf(w, "soak: %d campaigns × %d rounds, base seed %d\n", o.campaigns, o.rounds, o.seed)
	fmt.Fprintf(w, "plant: MLP %d→%v→%d on %d×%d crossbar tiles\n",
		cfg.Plant.In, cfg.Plant.Hidden, cfg.Plant.Classes, cfg.Plant.Tile, cfg.Plant.Tile)
	results, err := campaign.RunMany(o.seed, o.campaigns, cfg)
	if err != nil {
		return nil, err
	}
	sc := campaign.Score(results)
	fmt.Fprintf(w, "\n%s\n", sc)
	return sc.Failures(), nil
}

// fleetSoak runs the fleet crash-equivalence pairs and prints the fleet
// scorecard.
func fleetSoak(w io.Writer, o soakFlags) ([]string, error) {
	cfg := campaign.DefaultFleetSoakConfig()
	cfg.Rounds = o.rounds
	cfg.Devices = o.devices
	fmt.Fprintf(w, "fleet soak: %d campaigns × %d rounds × %d devices, base seed %d\n",
		o.campaigns, o.rounds, o.devices, o.seed)
	fmt.Fprintf(w, "crashes after rounds %v (journal tail corrupted), shower at round %d\n",
		cfg.CrashAfter, cfg.ShowerRound)
	pairs := make([]campaign.FleetPairResult, 0, o.campaigns)
	for i := 0; i < o.campaigns; i++ {
		pair, err := campaign.RunFleetPair(o.seed+int64(i), cfg)
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, pair)
	}
	sc := campaign.ScoreFleet(pairs)
	fmt.Fprintf(w, "\n%s\n", sc)
	return sc.Failures(), nil
}

// lifetimeSoak runs the three-arm lifetime soak and prints each seed's
// verdict table.
func lifetimeSoak(w io.Writer, o soakFlags) ([]string, error) {
	cfg := campaign.DefaultLifetimeSoakConfig()
	cfg.Rounds = o.rounds
	cfg.Devices = o.devices
	fmt.Fprintf(w, "lifetime soak: %d campaigns × %d rounds × %d devices, base seed %d\n",
		o.campaigns, o.rounds, o.devices, o.seed)
	fmt.Fprintf(w, "ladder scrub(%d) → remap(%d) → retrain(%d), budget %d units/device; crashes after rounds %v\n",
		repair.CostScrub, repair.CostRemap, repair.CostRetrain, cfg.Fleet.RepairBudget, cfg.CrashAfter)
	return perSeed(w, o, "\n", campaign.RunLifetimeSoak, cfg)
}

// netSoak runs the network-tier chaos campaigns and prints one line per
// campaign.
func netSoak(w io.Writer, o soakFlags) ([]string, error) {
	cfg := campaign.DefaultNetSoakConfig()
	if o.netRequests > 0 {
		cfg.Load.Requests = o.netRequests
	}
	fmt.Fprintf(w, "net soak: %d campaigns × %d requests over %d shards × %d devices, base seed %d\n",
		o.campaigns, cfg.Load.Requests, cfg.Shards, cfg.DevicesPerShard, o.seed)
	fmt.Fprintf(w, "chaos: slow %.0f%%@%v, crash %.1f%%, deadline storm every %d waves @%dms, shard-0 drains at %.0f%%\n",
		100*cfg.SlowP, cfg.SlowDelay, 100*cfg.CrashP, cfg.Load.StormEvery,
		cfg.Load.StormDeadlineMs, 100*campaign.NetSoakDrainAfter)
	return perSeed(w, o, "", campaign.RunNetSoak, cfg)
}

// crashSoak runs the durable-state torture matrix once per seed and prints
// one line per matrix.
func crashSoak(w io.Writer, o soakFlags) ([]string, error) {
	cfg := campaign.DefaultCrashSoakConfig()
	cfg.Devices = o.devices
	fmt.Fprintf(w, "crash soak: %d matrices × (%d crash points × %d faults), %d devices × %d rounds, base seed %d\n",
		o.campaigns, len(cfg.CrashPoints), len(campaign.AllFaults()), cfg.Devices, cfg.Rounds, o.seed)
	fmt.Fprintf(w, "compaction every %d rounds or %d bytes; WAL gated at 2×threshold + one record\n",
		cfg.Fleet.CompactEvery, campaign.CrashSoakCompactBytes)
	return perSeed(w, o, "", campaign.RunCrashSoak, cfg)
}

// demo ages one accelerator in the field under a C-TP monitor, repairing
// when the monitor asks for it.
func demo(w, stderr io.Writer, hoursPerStep float64, steps int, analog bool) int {
	env, err := experiments.NewEnv(experiments.DefaultScale(), stderr)
	if err != nil {
		fmt.Fprintln(stderr, "monitor:", err)
		return 1
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
	fmt.Fprintf(w, "accelerator: %d crossbar tiles of %dx%d, DAC=%d-bit ADC=%d-bit\n",
		accel.TileCount(), cfg.TileRows, cfg.TileCols, cfg.DACBits, cfg.ADCBits)

	mon := monitor.New(net, patterns, calib)
	fmt.Fprintf(w, "monitor armed with %d C-TP patterns\n\n", mon.PatternCount())

	// readout refreshes the cached weight-level view and returns the batched
	// inference plan bound to it; the whole demo shares one set of workspaces
	roEng := engine.MustCompile(accel.RefreshReadout(), engine.Options{})
	readout := func() *engine.Engine {
		accel.RefreshReadout()
		return roEng
	}
	infer := func() monitor.Infer {
		if analog {
			return func(x *tensor.Tensor) *tensor.Tensor {
				return nn.Softmax(accel.Infer(x))
			}
		}
		return func(x *tensor.Tensor) *tensor.Tensor {
			return readout().Probs(x)
		}
	}()

	eval := env.DigitsTest.Head(300)
	for s := 0; s < steps; s++ {
		rep := mon.Check(infer)
		trueAcc := readout().Accuracy(eval.X, eval.Y, 64)
		fmt.Fprintf(w, "t=%6.0fh %s | true accuracy %.1f%%\n", accel.Hours(), rep, 100*trueAcc)

		if rep.Status >= monitor.Impaired {
			fmt.Fprintf(w, "         → executing repair: reprogramming all crossbars\n")
			accel.Reprogram()
			rep = mon.Check(infer)
			fmt.Fprintf(w, "         after repair: %s\n", rep)
		}
		// age the device; inject a burst of stuck-at faults late in life
		accel.AdvanceTime(hoursPerStep)
		if s == steps-3 {
			fmt.Fprintln(w, "         (injecting endurance stuck-at faults: 0.2% SA0, 0.1% SA1)")
			accel.InjectStuckAt(0.002, 0.001)
		}
	}
	slope, summary := mon.Trend()
	fmt.Fprintf(w, "\ndistance trend: slope=%.5f per round, %s\n", slope, summary)
	return 0
}

// runCost drives one plant through a serving + monitoring + repair lifetime
// and prints the accumulated hardware cost split by attribution class — the
// telemetry the fleet journals per device and /statsz serves per tier. Rounds
// of serving traffic interleave with concurrent-test checks; stuck-at faults
// land mid-life so a repair episode runs and its measured (not sticker) cost
// shows up under the repair class. Every call goes through the plant's
// fleet.Station, which books each charge to the class of the path that made
// it.
func runCost(w, stderr io.Writer, seed int64, rounds int) int {
	pcfg := campaign.DefaultPlantConfig()
	p := campaign.NewPlant("plant", seed, pcfg)
	st := fleet.NewStation(p)
	rt, err := health.New(monitor.New(p.Reference(), p.Patterns(), nil), campaign.DefaultConfig().Health)
	if err != nil {
		fmt.Fprintln(stderr, "cost:", err)
		return 1
	}
	fmt.Fprintf(w, "cost meter: MLP %d→%v→%d on %d×%d tiles, %d rounds, seed %d\n",
		pcfg.In, pcfg.Hidden, pcfg.Classes, pcfg.Tile, pcfg.Tile, rounds, seed)
	traffic := tensor.RandUniform(rng.New(seed+1), 0, 1, 32, pcfg.In)
	var episodes []health.Episode
	for r := 1; r <= rounds; r++ {
		p.SetRound(r)
		st.ServeInfer(traffic)                     // serving class
		rt.Check(context.Background(), st.Infer()) // monitor class
		p.Accelerator().AdvanceTime(200)
		if r == rounds/2 {
			fmt.Fprintf(w, "round %d: injecting stuck-at faults (0.8%% SA0, 0.4%% SA1)\n", r)
			p.Accelerator().InjectStuckAt(0.008, 0.004)
		}
		if rt.Confirmed() >= monitor.Impaired {
			ep := rt.Supervise(context.Background(), st.Infer(), st.Repairer(), campaign.EpisodeBudget)
			episodes = append(episodes, ep)
			fmt.Fprintf(w, "round %d: repair episode, %d attempt(s), recovered=%v\n",
				r, len(ep.Attempts), ep.Recovered)
		}
	}

	b := st.CostCounter().Snapshot()
	fmt.Fprintf(w, "\n%-10s %14s %12s %12s %14s %14s %16s %14s\n", "class",
		"cycles", "DAC", "ADC", "xbar reads", "xbar writes", "energy (fJ)", "buffer B")
	row := func(name string, c hwcost.Cost) {
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
		fmt.Fprintln(stderr, "\ncost: metered workload accumulated zero cost")
		return 1
	}
	return 0
}
