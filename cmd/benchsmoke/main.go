// Command benchsmoke is the CI performance gate for the drop-connect
// hardening step and the hardware cost accounting layer. On the default
// monitoring workload's MLP shape it verifies that hardening is
// bit-identical between serial and pooled training plans and that metering
// is numerically invisible, then measures both and compares against the
// committed baseline (cmd/benchsmoke/testdata/bench_baseline.json).
//
// The baseline is expressed as machine-independent ratios — minimum
// masked-over-plain and metered-over-unmetered wall-time ratios and maximum
// steady-state allocations per operation — so the gate is stable across
// host CPUs and core counts. Exit status 0 means the gate holds; 1 means a
// regression (or a bit-identity violation, which fails first and loudest).
//
// With -json DIR the measured numbers are also written to
// DIR/BENCH_harden.json and DIR/BENCH_cost.json, the machine-readable
// perf-trajectory artifacts documented in DESIGN.md §11.
//
//	go run ./cmd/benchsmoke [-baseline path] [-json dir]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"reramtest/internal/hwcost"
	"reramtest/internal/models"
	"reramtest/internal/nn"
	"reramtest/internal/reram"
	"reramtest/internal/rng"
	"reramtest/internal/tengine"
	"reramtest/internal/tensor"
)

// Baseline is the committed performance contract.
type Baseline struct {
	// HardenMinSpeedup is the minimum plain-step-over-masked-step wall-time
	// ratio for drop-connect hardening: the mask prepass and restore are O(n)
	// passes over the weights, so a masked step must stay within a bounded
	// factor of the unmasked one (0.25 means masking may cost at most 4×).
	HardenMinSpeedup float64 `json:"harden_min_speedup"`
	// HardenMaxAllocsPerOp caps steady-state heap allocations per masked
	// drop-connect training step (DropConnect.Step + fused StepAndZero).
	HardenMaxAllocsPerOp float64 `json:"harden_max_allocs_per_op"`
	// CostMinRatio is the minimum unmetered-over-metered wall-time ratio for
	// one analog inference pass: hardware cost accounting rides the tile hot
	// path, so a metered pass must stay within a bounded factor of an
	// unmetered one (0.70 means metering may cost at most ~1.43×).
	CostMinRatio float64 `json:"cost_min_ratio"`
	// CostMaxAllocsPerOp caps steady-state heap allocations of the counting
	// hot path itself (Counter.Charge + Settle + Snapshot). The contract is
	// zero.
	CostMaxAllocsPerOp float64 `json:"cost_max_allocs_per_op"`
}

// Report is one emitted perf-trajectory record (BENCH_harden.json /
// BENCH_cost.json).
type Report struct {
	Workload      string  `json:"workload"`
	LegacyNsPerOp int64   `json:"legacy_ns_per_op"`
	EngineNsPerOp int64   `json:"engine_ns_per_op"`
	Speedup       float64 `json:"speedup"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
	MinSpeedup    float64 `json:"min_speedup"`
	MaxAllocsOp   float64 `json:"max_allocs_per_op"`
}

func writeReport(dir, name string, r Report) {
	if dir == "" {
		return
	}
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsmoke: marshal report:", err)
		os.Exit(1)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchsmoke: write report:", err)
		os.Exit(1)
	}
}

func main() {
	baselinePath := flag.String("baseline", "cmd/benchsmoke/testdata/bench_baseline.json", "baseline ratios to gate against")
	jsonDir := flag.String("json", "", "directory to write BENCH_harden.json / BENCH_cost.json perf-trajectory artifacts (empty = skip)")
	flag.Parse()

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsmoke:", err)
		os.Exit(1)
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintln(os.Stderr, "benchsmoke: parse baseline:", err)
		os.Exit(1)
	}

	failed := false
	if !hardenGate(base, *jsonDir) {
		failed = true
	}
	if !costGate(base, *jsonDir) {
		failed = true
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("benchsmoke: PASS")
}

// minPair times arm a against arm b on a shared host whose speed swings 2×
// between seconds: for pairBudget it alternates millisecond slices of the
// two (several hundred rounds), so both arms sample the same stretches of
// machine, and returns each arm's minimum ns/op — its least-disturbed slice.
// Two back-to-back testing.Benchmark calls put the arms in different seconds
// and their ratio inherits the swing; slices of tens of milliseconds rarely
// fit a quiet stretch and spread the ratio three times wider than these do.
func minPair(a, b func()) (aNs, bNs int64) {
	const (
		pairSlice  = time.Millisecond
		pairBudget = 2 * time.Second
	)
	run := func(f func(), n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		return time.Since(start)
	}
	arms := [2]func(){a, b}
	var iters [2]int
	for i, f := range arms {
		// size the slice: double n until one timed run of it fills pairSlice
		// (these runs also warm the arm's workspaces)
		n := 1
		for run(f, n) < pairSlice {
			n *= 2
		}
		iters[i] = n
	}
	best := [2]time.Duration{math.MaxInt64, math.MaxInt64}
	for start := time.Now(); time.Since(start) < pairBudget; {
		for i, f := range arms {
			if d := run(f, iters[i]); d < best[i] {
				best[i] = d
			}
		}
	}
	return best[0].Nanoseconds() / int64(iters[0]), best[1].Nanoseconds() / int64(iters[1])
}

// hardenGate measures the drop-connect hardening step — commissioning-time
// fault-aware training — against the unmasked training step, after first
// demanding that hardening is bit-identical between a serial and a pooled
// engine (masks are drawn serially outside the kernels, so worker count must
// not move a single weight bit) and that the masked step allocates nothing
// in steady state.
func hardenGate(base Baseline, jsonDir string) bool {
	const batch, in, classes, steps = 16, 16, 6, 25
	x := tensor.RandUniform(rng.New(8), 0, 1, batch, in)
	labels := make([]int, batch)
	for j := range labels {
		labels[j] = j % classes
	}

	// hard gate first: K hardened momentum-SGD steps must land on
	// bit-identical weights on the serial and pooled arms
	pool := tensor.NewPool(4)
	defer pool.Close()
	runDC := func(opts tengine.Options) *nn.Network {
		net := models.MLP(rng.New(7), in, []int{24, 16}, classes)
		sgd := tengine.NewSGD(net.Params(), 0.05, 0.9, 0)
		dc := tengine.NewDropConnect(tengine.MustCompile(net, opts), 0.1, rng.New(17))
		for i := 0; i < steps; i++ {
			dc.Step(x, labels)
			sgd.StepAndZero()
		}
		return net
	}
	serialNet := runDC(tengine.Options{Workers: 1, MaxBatch: batch})
	pooledNet := runDC(tengine.Options{Pool: pool, MaxBatch: batch})
	sp, pp := serialNet.Params(), pooledNet.Params()
	for i := range sp {
		if !pp[i].Value.Equal(sp[i].Value) {
			fmt.Fprintf(os.Stderr, "benchsmoke: FAIL hardened weights of %s are not bit-identical across serial/pooled arms\n", sp[i].Name)
			return false
		}
	}

	// timing arms on the default training workload, masked vs unmasked step
	const tBatch, tIn, tClasses = 32, 784, 10
	buildTimingNet := func() *nn.Network {
		return models.MLP(rng.New(13), tIn, []int{64, 32}, tClasses)
	}
	tx := tensor.RandUniform(rng.New(9), 0, 1, tBatch, tIn)
	tLabels := make([]int, tBatch)
	for j := range tLabels {
		tLabels[j] = j % tClasses
	}
	plainNet, maskedNet := buildTimingNet(), buildTimingNet()
	plOpt := tengine.NewSGD(plainNet.Params(), 0.05, 0.9, 1e-4)
	mkOpt := tengine.NewSGD(maskedNet.Params(), 0.05, 0.9, 1e-4)
	plainEng := tengine.MustCompile(plainNet, tengine.Options{Workers: 1, MaxBatch: tBatch})
	dc := tengine.NewDropConnect(tengine.MustCompile(maskedNet, tengine.Options{Workers: 1, MaxBatch: tBatch}), 0.1, rng.New(19))
	maskedStep := func() {
		dc.Step(tx, tLabels)
		mkOpt.StepAndZero()
	}
	plainNs, maskedNs := minPair(func() {
		plainEng.ForwardBackward(tx, tLabels)
		plOpt.StepAndZero()
	}, maskedStep)
	allocs := testing.AllocsPerRun(50, maskedStep)

	speedup := float64(plainNs) / float64(maskedNs)
	fmt.Printf("benchsmoke: harden plain %d ns/op, masked %d ns/op, ratio %.2fx (min %.2fx), allocs/op %.0f (max %.0f)\n",
		plainNs, maskedNs, speedup, base.HardenMinSpeedup, allocs, base.HardenMaxAllocsPerOp)
	writeReport(jsonDir, "BENCH_harden.json", Report{
		Workload:      fmt.Sprintf("MLP 784-[64 32]-10, batch-%d drop-connect hardening step at p=0.1", tBatch),
		LegacyNsPerOp: plainNs, EngineNsPerOp: maskedNs,
		Speedup: speedup, AllocsPerOp: allocs,
		MinSpeedup: base.HardenMinSpeedup, MaxAllocsOp: base.HardenMaxAllocsPerOp,
	})

	ok := true
	if speedup < base.HardenMinSpeedup {
		fmt.Fprintf(os.Stderr, "benchsmoke: FAIL harden masked-step ratio %.2fx below baseline %.2fx\n", speedup, base.HardenMinSpeedup)
		ok = false
	}
	if allocs > base.HardenMaxAllocsPerOp {
		fmt.Fprintf(os.Stderr, "benchsmoke: FAIL harden %.0f allocs/op above baseline %.0f\n", allocs, base.HardenMaxAllocsPerOp)
		ok = false
	}
	return ok
}

// costGate guards the hardware cost accounting layer: metering must be
// numerically invisible (a metered accelerator's analog outputs and readout
// weights bit-identical to an unmetered twin's), the counting hot path must
// allocate nothing in steady state, and a metered inference pass must stay
// within the baseline's bounded factor of an unmetered one.
func costGate(base Baseline, jsonDir string) bool {
	const patterns, in, classes = 16, 16, 6
	cfg := reram.DefaultConfig()
	cfg.TileRows, cfg.TileCols = 16, 16
	cfg.Device.ProgramSigma = 0.03
	build := func() *reram.Accelerator {
		return reram.NewAccelerator(models.MLP(rng.New(7), in, []int{24, 16}, classes), cfg, 55)
	}
	metered, plain := build(), build()
	plain.SetCounter(nil)
	x := tensor.RandUniform(rng.New(8), 0, 1, patterns, in)

	// hard gate first: attaching a counter must not move a single output bit
	// on the analog path or the weight-level readout
	if !metered.Infer(x).Equal(plain.Infer(x)) {
		fmt.Fprintln(os.Stderr, "benchsmoke: FAIL metered analog inference is not bit-identical to unmetered")
		return false
	}
	mp, pp := metered.RefreshReadout().Params(), plain.RefreshReadout().Params()
	for i := range mp {
		if !mp[i].Value.Equal(pp[i].Value) {
			fmt.Fprintf(os.Stderr, "benchsmoke: FAIL metered readout param %s is not bit-identical to unmetered\n", mp[i].Name)
			return false
		}
	}
	// no station owns this accelerator: book its spend here
	if metered.Counter().Settle(hwcost.ClassServing).IsZero() {
		fmt.Fprintln(os.Stderr, "benchsmoke: FAIL metered accelerator charged nothing")
		return false
	}

	// the counting hot path itself: charge + settle + snapshot, zero
	// allocations
	ctr := hwcost.NewCounter()
	unit := hwcost.Cost{ComputeCycles: 1, DACConversions: 2, ADCConversions: 3,
		CrossbarReads: 4, CrossbarWrites: 5, EnergyFJ: 6, BufferBytes: 7}
	allocs := testing.AllocsPerRun(100, func() {
		ctr.Charge(unit)
		ctr.Settle(hwcost.ClassMonitor)
		_ = ctr.Snapshot()
	})

	// timing arms: the same analog inference with the meter on and off
	plainNs, meteredNs := minPair(
		func() { plain.Infer(x) },
		func() { metered.Infer(x) })

	ratio := float64(plainNs) / float64(meteredNs)
	fmt.Printf("benchsmoke: cost unmetered %d ns/op, metered %d ns/op, ratio %.2fx (min %.2fx), charge allocs/op %.0f (max %.0f)\n",
		plainNs, meteredNs, ratio, base.CostMinRatio, allocs, base.CostMaxAllocsPerOp)
	writeReport(jsonDir, "BENCH_cost.json", Report{
		Workload:      fmt.Sprintf("MLP 16-[24 16]-6 on 16×16 tiles, %d-pattern analog pass, metered vs unmetered", patterns),
		LegacyNsPerOp: plainNs, EngineNsPerOp: meteredNs,
		Speedup: ratio, AllocsPerOp: allocs,
		MinSpeedup: base.CostMinRatio, MaxAllocsOp: base.CostMaxAllocsPerOp,
	})

	ok := true
	if ratio < base.CostMinRatio {
		fmt.Fprintf(os.Stderr, "benchsmoke: FAIL metering overhead ratio %.2fx below baseline %.2fx\n", ratio, base.CostMinRatio)
		ok = false
	}
	if allocs > base.CostMaxAllocsPerOp {
		fmt.Fprintf(os.Stderr, "benchsmoke: FAIL cost charge path %.0f allocs/op above baseline %.0f\n", allocs, base.CostMaxAllocsPerOp)
		ok = false
	}
	return ok
}
