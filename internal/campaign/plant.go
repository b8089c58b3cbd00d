// The plant is the device-under-test a campaign soaks: a small trained MLP
// programmed onto simulated ReRAM crossbars, plus the probe set the harness
// uses to score functional recovery and the Repairer that executes the
// runtime's repair plan against the hardware.
//
// Fidelity is self-labelled: the probe labels are the *clean* model's own
// predictions, so commissioning fidelity is 1.0 by construction (modulo
// programming noise) and "recovered to within 2% of commissioning" is a pure
// statement about the accelerator's functional agreement with the model it
// was deployed with — no ground-truth dataset required, exactly like the
// concurrent-test setting itself.
package campaign

import (
	"context"
	"fmt"
	"math"
	"sync"

	"reramtest/internal/dataset"
	"reramtest/internal/engine"
	"reramtest/internal/hwcost"
	"reramtest/internal/models"
	"reramtest/internal/monitor"
	"reramtest/internal/nn"
	"reramtest/internal/repair"
	"reramtest/internal/reram"
	"reramtest/internal/rng"
	"reramtest/internal/tensor"
	"reramtest/internal/testgen"
)

// PlantConfig sizes the simulated device-under-test.
type PlantConfig struct {
	// In/Hidden/Classes shape the MLP workload.
	In      int
	Hidden  []int
	Classes int
	// TrainN/ProbeN size the self-labelled retraining and fidelity sets.
	TrainN, ProbeN int
	// Patterns is the concurrent-test set size (C-TP selection).
	Patterns int
	// ModelSeed fixes the workload (model + data); campaigns share it so the
	// expensive training happens once while fault timelines vary per seed.
	ModelSeed int64
	// Tile is the (square) crossbar array size.
	Tile int
	// ProgramSigma/DriftRate/DriftJitter are the device physics the plant
	// ages under.
	ProgramSigma, DriftRate, DriftJitter float64
	// RetrainEpochs bounds the fault-aware retraining repair.
	RetrainEpochs int

	// Ladder makes the plant's repair ladder the pluggable strategy suite
	// (scrub → remap → retrain); when false (and RetrainOnly is unset) the
	// ladder is the fixed reprogram → retrain → replace escalation.
	Ladder bool
	// RetrainOnly restricts the exposed suite to the retrain strategy — the
	// lifetime soak's control arm, charged in the same cost units as the
	// full ladder.
	RetrainOnly bool
	// SpareRows provisions spare lines per crossbar for stuck-at remapping
	// (0 → 2 when Ladder is set).
	SpareRows int
	// ScrubTol is the relative conductance-error band for scrub/remap
	// diagnosis (0 → 0.25).
	ScrubTol float64
	// RemapMaxPerLine is the stuck-cell count above which a whole line is
	// remapped to a spare instead of corrected cell-by-cell (0 → 2).
	RemapMaxPerLine int

	// Harden fine-tunes the workload model under drop-connect weight masking
	// at commissioning, baking stuck-at tolerance into the weights before
	// they are ever programmed (arXiv:2404.15498).
	Harden bool
	// HardenP/HardenEpochs tune the hardening schedule (0 → 0.1 / 2).
	HardenP      float64
	HardenEpochs int
}

// DefaultPlantConfig returns a seconds-scale plant: a 3-layer MLP on 32×32
// crossbar tiles with mild programming noise.
func DefaultPlantConfig() PlantConfig {
	return PlantConfig{
		In: 16, Hidden: []int{24, 16}, Classes: 6,
		TrainN: 600, ProbeN: 256, Patterns: 16,
		ModelSeed: 7, Tile: 32,
		ProgramSigma: 0.02, DriftRate: 0.002, DriftJitter: 0.004,
		RetrainEpochs: 2,
	}
}

// template is the immutable, shareable part of a plant: the trained clean
// model, the self-labelled datasets and the pattern set. Campaigns only ever
// read it (repairs clone before mutating), so one template serves every seed
// of the same PlantConfig.
type template struct {
	clean    *nn.Network
	train    *dataset.Dataset // labels = clean model predictions
	probe    *dataset.Dataset
	patterns *testgen.PatternSet
}

var (
	templateMu    sync.Mutex
	templateCache = map[string]*template{}
)

// templateKey ignores the knobs that do not shape the template itself
// (repair-suite wiring, device spares), so the ladder and retrain-only arms
// of a lifetime soak share one trained workload model.
func templateKey(cfg PlantConfig) string {
	cfg.Ladder, cfg.RetrainOnly = false, false
	cfg.SpareRows, cfg.ScrubTol, cfg.RemapMaxPerLine = 0, 0, 0
	return fmt.Sprintf("%+v", cfg)
}

// buildTemplate trains the workload model on synthetic Gaussian-cluster data
// and self-labels the retrain/probe sets with its predictions.
func buildTemplate(cfg PlantConfig) *template {
	templateMu.Lock()
	defer templateMu.Unlock()
	if t, ok := templateCache[templateKey(cfg)]; ok {
		return t
	}
	r := rng.New(cfg.ModelSeed)
	pool := clusterData(r.Split(), cfg, cfg.TrainN+cfg.ProbeN+4*cfg.Patterns)
	net := models.MLP(r.Split(), cfg.In, cfg.Hidden, cfg.Classes)
	tcfg := models.DefaultTrainConfig()
	tcfg.Epochs = 5
	tcfg.Seed = r.Int63()
	models.Train(net, pool, tcfg)
	if cfg.Harden {
		// commissioning-time drop-connect hardening: the deployed weights are
		// fault-aware BEFORE self-labelling, so commissioning fidelity stays
		// 1.0 by construction against the hardened model
		hcfg := repair.DefaultHardenConfig()
		if cfg.HardenP > 0 {
			hcfg.DropP = cfg.HardenP
		}
		if cfg.HardenEpochs > 0 {
			hcfg.Epochs = cfg.HardenEpochs
		}
		hcfg.Seed = r.Int63()
		repair.HardenDropConnect(net, pool, nil, hcfg)
	}

	// self-label everything with the trained model's predictions
	pool.Y = engine.MustCompile(net, engine.Options{}).Predict(pool.X)
	train := pool.Head(cfg.TrainN)
	probeIdx := make([]int, cfg.ProbeN)
	for i := range probeIdx {
		probeIdx[i] = cfg.TrainN + i
	}
	probe := pool.Subset(probeIdx)

	t := &template{clean: net, train: train, probe: probe,
		patterns: testgen.SelectCTP(net, pool, cfg.Patterns)}
	templateCache[templateKey(cfg)] = t
	return t
}

// clusterData renders a synthetic classification workload: one Gaussian
// prototype per class in [0,1]^In with per-sample jitter.
func clusterData(r *rng.RNG, cfg PlantConfig, n int) *dataset.Dataset {
	protos := make([][]float64, cfg.Classes)
	for c := range protos {
		protos[c] = make([]float64, cfg.In)
		for i := range protos[c] {
			protos[c][i] = r.Float64()
		}
	}
	x := tensor.New(n, cfg.In)
	y := make([]int, n)
	xd := x.Data()
	for s := 0; s < n; s++ {
		c := s % cfg.Classes
		y[s] = c
		row := xd[s*cfg.In : (s+1)*cfg.In]
		for i := range row {
			row[i] = clamp01(protos[c][i] + r.Normal(0, 0.12))
		}
	}
	return &dataset.Dataset{Name: "clusters", Classes: cfg.Classes, C: 1, H: 1, W: cfg.In, X: x, Y: y}
}

func clamp01(v float64) float64 { return math.Min(1, math.Max(0, v)) }

// GlitchMode is how a transient sensor glitch corrupts the readout.
type GlitchMode int

// Transient glitch modes. Noise perturbs confidences enough to cross a
// status threshold (the flap-inducing case); the other three are poisoned
// readouts the runtime must reject: NaN confidences, a wrong-shape tensor,
// and an Infer that panics outright.
const (
	GlitchNoise GlitchMode = iota
	GlitchNaN
	GlitchShape
	GlitchPanic
)

// String names the glitch mode.
func (g GlitchMode) String() string {
	switch g {
	case GlitchNoise:
		return "noise"
	case GlitchNaN:
		return "nan"
	case GlitchShape:
		return "shape"
	default:
		return "panic"
	}
}

// Plant is one campaign's device-under-test. It implements health.Repairer.
type Plant struct {
	cfg     PlantConfig
	tmpl    *template
	ref     *nn.Network // current reference weights (changes after retrain)
	accel   *reram.Accelerator
	r       *rng.RNG
	untyped int // repair-strategy errors that failed the typed-error contract

	round                  int // current campaign round, set by the runner
	glitchMode             GlitchMode
	glitchFrom, glitchUpto int // active round window [from, upto)

	// counter is the plant's lifetime hardware-cost meter. It is the plant's
	// own, not the accelerator's default: a module replacement swaps the
	// accelerator but the device's cost history spans parts, so the counter
	// re-attaches to every new accelerator and to the readout engine.
	counter *hwcost.Counter

	// eng is the compiled inference plan over the accelerator's cached
	// readout network; every monitored readout and fidelity probe reuses its
	// workspaces. It rebinds (or recompiles) when a module replacement swaps
	// the accelerator out from under it.
	eng *engine.Engine
}

// NewPlant programs the shared workload model onto a fresh simulated
// accelerator. seed individualises the device (programming noise, drift
// randomness), not the workload.
func NewPlant(seed int64, cfg PlantConfig) *Plant {
	tmpl := buildTemplate(cfg)
	// own clone of the shared template model: Forward passes use per-layer
	// scratch buffers, so concurrent plants (parallel campaigns, fleet
	// ticks) must never route through one shared instance
	p := &Plant{cfg: cfg, tmpl: tmpl, ref: tmpl.clean.Clone(), r: rng.New(seed),
		counter: hwcost.NewCounter()}
	p.accel = reram.NewAccelerator(p.ref, p.reramConfig(), p.r.Int63())
	p.accel.SetCounter(p.counter)
	return p
}

// CostCounter implements fleet.CostMetered: the plant's lifetime hardware
// spend, surviving module replacements and readout-engine recompiles.
func (p *Plant) CostCounter() *hwcost.Counter { return p.counter }

func (p *Plant) reramConfig() reram.Config {
	rc := reram.DefaultConfig()
	rc.TileRows, rc.TileCols = p.cfg.Tile, p.cfg.Tile
	rc.Device.ProgramSigma = p.cfg.ProgramSigma
	rc.Device.DriftRate = p.cfg.DriftRate
	rc.Device.DriftJitter = p.cfg.DriftJitter
	rc.Device.SpareRows = p.spareRows()
	return rc
}

// Ladder-knob defaults: only meaningful when cfg.Ladder (or RetrainOnly)
// exposes the strategy suite.
func (p *Plant) spareRows() int {
	if p.cfg.SpareRows > 0 {
		return p.cfg.SpareRows
	}
	if p.cfg.Ladder {
		return 2
	}
	return 0
}

func (p *Plant) scrubTol() float64 {
	if p.cfg.ScrubTol > 0 {
		return p.cfg.ScrubTol
	}
	// Tight by default: a scrub that leaves cells 25% off their programmed
	// level verifies at the monitor yet drags probe fidelity well below the
	// retrain-only control. 10% of the conductance window keeps the repaired
	// array functionally close to the reference.
	return 0.10
}

func (p *Plant) remapMaxPerLine() int {
	if p.cfg.RemapMaxPerLine > 0 {
		return p.cfg.RemapMaxPerLine
	}
	return 2
}

// Reference returns the model the monitor should currently be commissioned
// against.
func (p *Plant) Reference() *nn.Network { return p.ref }

// Patterns returns the concurrent-test pattern set.
func (p *Plant) Patterns() *testgen.PatternSet { return p.tmpl.patterns }

// Accelerator exposes the simulated hardware for event injection.
func (p *Plant) Accelerator() *reram.Accelerator { return p.accel }

// SetRound advances the plant's notion of campaign time; glitch windows are
// keyed to it so every readout retry within a poisoned round stays poisoned.
func (p *Plant) SetRound(round int) { p.round = round }

// StartGlitch arms a transient sensor glitch covering rounds
// [from, from+duration).
func (p *Plant) StartGlitch(mode GlitchMode, from, duration int) {
	p.glitchMode, p.glitchFrom, p.glitchUpto = mode, from, from+duration
}

func (p *Plant) glitchActive() bool {
	return p.round >= p.glitchFrom && p.round < p.glitchUpto
}

// readoutEngine refreshes the accelerator's cached readout network and
// returns the inference plan bound to it. The refresh mutates parameters in
// place, so in steady state the existing binding just sees the new weights;
// after a module replacement the new accelerator's readout rebinds into the
// same compiled plan (same architecture), reusing every workspace.
func (p *Plant) readoutEngine() *engine.Engine {
	ro := p.accel.RefreshReadout()
	if p.eng == nil || p.eng.Rebind(ro) != nil {
		p.eng = engine.MustCompile(ro, engine.Options{Counter: p.counter})
	}
	return p.eng
}

// BaseInfer is the unglitched readout path (weight-level view, matching the
// statistical abstraction the paper's sweeps use). The whole pattern batch
// runs through the plant's batched readout engine — bit-identical to the
// former per-sample Forward path, without its per-call clone of the readout
// network.
func (p *Plant) BaseInfer() monitor.Infer {
	return func(x *tensor.Tensor) *tensor.Tensor {
		return p.readoutEngine().Probs(x)
	}
}

// Infer is the monitored readout path, including any active transient
// glitch.
func (p *Plant) Infer() monitor.Infer {
	base := p.BaseInfer()
	return func(x *tensor.Tensor) *tensor.Tensor {
		if !p.glitchActive() {
			return base(x)
		}
		switch p.glitchMode {
		case GlitchPanic:
			panic("campaign: transient sensor glitch")
		case GlitchShape:
			return tensor.New(1, 1)
		case GlitchNaN:
			probs := base(x)
			probs.Data()[0] = math.NaN()
			return probs
		default: // GlitchNoise: mix confidences toward uniform, enough to
			// cross the Degraded threshold for exactly the glitch window
			probs := base(x)
			uniform := 1.0 / float64(probs.Dim(1))
			const alpha = 0.35
			probs.Apply(func(v float64) float64 { return (1-alpha)*v + alpha*uniform })
			return probs
		}
	}
}

// Fidelity measures the accelerator's functional agreement with the clean
// model on the probe set (1.0 = perfect agreement). The probe sweep runs
// through the batched readout engine (Engine.Accuracy, batches of 64).
//
// It runs outside any station, so it books its own spend (and anything else
// pending) to the serving class.
func (p *Plant) Fidelity() float64 {
	defer p.counter.Settle(hwcost.ClassServing)
	return p.readoutEngine().Accuracy(p.tmpl.probe.X, p.tmpl.probe.Y, 64)
}

// ShadowStatus classifies the accelerator's current raw severity through a
// fresh monitor commissioned against the current reference — the campaign's
// ground-truth label for an injected event. It bypasses glitches and leaves
// the runtime's monitor history untouched. Like Fidelity it runs outside any
// station and books its spend to the serving class.
func (p *Plant) ShadowStatus(cfg monitor.Config) monitor.Status {
	defer p.counter.Settle(hwcost.ClassServing)
	shadow := monitor.MustNew(p.ref, p.tmpl.patterns, nil, cfg)
	return shadow.Check(p.BaseInfer()).Status
}

// Apply executes one action of the fixed escalation against the simulated
// hardware (the default arm's rungs, see Strategies).
func (p *Plant) Apply(action repair.Action) (*nn.Network, error) {
	switch action {
	case repair.NoAction:
		return nil, nil
	case repair.Reprogram:
		p.accel.Reprogram()
		return nil, nil
	case repair.Retrain:
		// cloud-edge path: diagnose stuck cells (leaves arrays reprogrammed),
		// fine-tune the readout weights around the frozen faults on the
		// self-labelled set, redeploy, and hand the new reference back for
		// monitor recommissioning
		stuck, err := repair.DiagnoseStuck(p.accel, p.ref, 0.3)
		if err != nil {
			return nil, err
		}
		faulty := p.accel.ReadoutNetwork()
		rcfg := repair.DefaultRetrainConfig()
		rcfg.Epochs = p.cfg.RetrainEpochs
		rcfg.Seed = p.r.Int63()
		repair.RetrainAround(faulty, stuck, p.tmpl.train, nil, rcfg)
		p.accel.ProgramNetwork(faulty)
		p.ref = faulty
		return faulty, nil
	case repair.Replace:
		// module replacement: a fresh part programmed with the original
		// clean weights (cloned — the template stays shared and immutable)
		p.ref = p.tmpl.clean.Clone()
		p.accel = reram.NewAccelerator(p.ref, p.reramConfig(), p.r.Int63())
		p.accel.SetCounter(p.counter) // cost history spans the replacement
		// unlike fab-time commissioning, programming a replacement part in
		// the field is repair work the fleet pays for: charge the full write
		// pass, which the station running this rung books to the repair class
		// (integer bookkeeping only — device state and numerics are untouched)
		p.counter.Charge(p.accel.CommissionCost())
		return p.ref, nil
	default:
		return nil, fmt.Errorf("campaign: unknown repair action %v", action)
	}
}

// Diagnose implements health.Repairer: an RNG-free census of what is
// wrong with the hardware right now. Stuck counts only UNCOMPENSATED pair
// positions — a stuck cell whose differential partner already re-encodes the
// weight around it no longer motivates a remap.
func (p *Plant) Diagnose(confirmed monitor.Status) repair.Diagnosis {
	tol := p.scrubTol()
	_, uncompensated := p.accel.StuckStats(tol)
	return repair.Diagnosis{
		Status:  confirmed,
		Drifted: p.accel.DriftedCells(tol),
		Stuck:   uncompensated,
		Spares:  p.accel.SpareLines(),
	}
}

// Strategies implements health.Repairer: the plant's repair ladder in
// escalation order. By default that is the fixed escalation over Apply;
// cfg.Ladder swaps in the strategy suite. The RetrainOnly variant is the
// lifetime soak's control arm: the same cost accounting with the cloud-edge
// retrain as the only rung.
func (p *Plant) Strategies() []repair.Strategy {
	if !p.cfg.Ladder && !p.cfg.RetrainOnly {
		return repair.Escalation(p.Apply)
	}
	retrain := p.counted(p.retrainStrategy())
	if p.cfg.RetrainOnly {
		return []repair.Strategy{retrain}
	}
	tol := p.scrubTol()
	scrub := repair.NewScrub(p.accel, tol)
	return []repair.Strategy{
		// scrub is gated to drift-DOMINATED diagnoses: rewriting healthy
		// cells cannot clear stuck-at damage, and a rung that predictably
		// fails verification is budget burned before the rung that works
		p.counted(repair.Func{
			StrategyName: scrub.Name(), StrategyCost: scrub.Cost(),
			When: func(d repair.Diagnosis) bool { return scrub.Applicable(d) && d.Drifted > d.Stuck },
			Do:   scrub.Apply,
		}),
		p.counted(repair.NewRemap(p.accel, p.remapMaxPerLine(), tol)),
		retrain,
	}
}

// retrainStrategy wraps the shared retrain rung so a successful retrain also
// moves the plant's own reference pointer (the Report.NewRef hand-back only
// recommissions the monitor).
func (p *Plant) retrainStrategy() repair.Strategy {
	inner := repair.NewRetrain(p.accel, func() *nn.Network { return p.ref },
		p.tmpl.train, nil, 0.3, func() repair.RetrainConfig {
			rcfg := repair.DefaultRetrainConfig()
			rcfg.Epochs = p.cfg.RetrainEpochs
			rcfg.Seed = p.r.Int63()
			return rcfg
		})
	return repair.Func{
		StrategyName: inner.Name(), StrategyCost: inner.Cost(), When: inner.Applicable,
		Do: func(ctx context.Context, d repair.Diagnosis) (repair.Report, error) {
			rep, err := inner.Apply(ctx, d)
			if err == nil && rep.NewRef != nil {
				p.ref = rep.NewRef
			}
			return rep, err
		},
	}
}

// counted decorates a strategy with the typed-error audit the lifetime soak
// gates on: every Apply error must satisfy repair.IsTyped.
func (p *Plant) counted(s repair.Strategy) repair.Strategy {
	return repair.Func{
		StrategyName: s.Name(), StrategyCost: s.Cost(), When: s.Applicable,
		Do: func(ctx context.Context, d repair.Diagnosis) (repair.Report, error) {
			rep, err := s.Apply(ctx, d)
			if err != nil && !repair.IsTyped(err) {
				p.untyped++
			}
			return rep, err
		},
	}
}

// UntypedRepairErrors reports how many strategy applications returned errors
// outside the typed *repair.Error / *repair.DiagnosisError contract.
func (p *Plant) UntypedRepairErrors() int { return p.untyped }
