package experiments

import (
	"fmt"
	"strings"

	"reramtest/internal/engine"
	"reramtest/internal/faults"
	"reramtest/internal/monitor"
	"reramtest/internal/reram"
	"reramtest/internal/rng"
	"reramtest/internal/stats"
	"reramtest/internal/tensor"
	"reramtest/internal/testgen"
)

// Ablation studies for the design choices DESIGN.md calls out. These go
// beyond the paper's published evaluation: they quantify how sensitive each
// contribution is to its main hyper-parameter.

// AlphaAblationResult sweeps Eq. 1's α, the balance between the clean-model
// soft-label term and the fault-model hard-label term of O-TP generation.
// The paper fixes α = 0.5 ("equal importance"); this ablation shows what
// each extreme costs: small α over-weights the fault model (patterns become
// ordinary adversarial inputs for f_w'), large α over-weights flatness (the
// patterns stop encoding where errors push the outputs).
type AlphaAblationResult struct {
	Alphas []float64
	// CleanFlatness is the mean per-pattern std of clean-model confidences
	// (constraint 1: smaller = more confused clean model).
	CleanFlatness []float64
	// Dist is the mean all-class confidence distance against fault models at
	// the reference σ (sensitivity the monitor actually uses).
	Dist []float64
	// Iters is the number of optimization iterations consumed.
	Iters []int
}

// AblationOTPAlpha generates O-TP sets across α on LeNet-5 and scores each
// against a shared fault-model set at the reference σ.
func (e *Env) AblationOTPAlpha() *AlphaAblationResult {
	const model = "lenet5"
	net, _ := e.ModelFor(model)
	ref := faults.MakeFaulty(net, faults.LogNormal{Sigma: otpRefSigma(model)}, seedOTPRef)
	fms := faults.MakeFaultySet(net, faults.LogNormal{Sigma: otpRefSigma(model)}, e.Scale.FaultModels, seedFaultBase+333)

	res := &AlphaAblationResult{Alphas: []float64{0.1, 0.3, 0.5, 0.7, 0.9}}
	for _, alpha := range res.Alphas {
		fmt.Fprintf(e.Log, "ablation alpha=%.1f\n", alpha)
		cfg := testgen.DefaultOTPConfig()
		cfg.Alpha = alpha
		cfg.MaxIters = 300
		p, r := testgen.GenerateOTP(net, ref, 10, cfg, rng.New(seedOTPNoise))
		res.Iters = append(res.Iters, r.Iters)
		res.CleanFlatness = append(res.CleanFlatness, stats.Mean(r.CleanStd))

		golden := monitor.Capture(net, p)
		dists := make([]float64, len(fms))
		for i, fm := range fms {
			dists[i] = golden.Observe(fm).AllDist
		}
		res.Dist = append(res.Dist, stats.Mean(dists))
	}
	return res
}

// Render prints the α ablation.
func (r *AlphaAblationResult) Render() string {
	tab := newTable(append([]string{"α"}, floatLabels(r.Alphas)...)...)
	tab.addFloatRow("clean flatness (std)", r.CleanFlatness, "%.4f")
	tab.addFloatRow("all-dist @ ref σ", r.Dist, "%.4f")
	iters := make([]string, len(r.Iters)+1)
	iters[0] = "iterations"
	for i, v := range r.Iters {
		iters[i+1] = fmt.Sprintf("%d", v)
	}
	tab.addRow(iters...)
	return "O-TP α ablation (LeNet-5, Eq. 1 balance)\n" + tab.String()
}

// PoolAblationResult sweeps the depth of the inference pool the C-TP
// selector mines. The paper selects 50 corner images out of the full 10K
// test split; this ablation shows that corner-data quality — and hence
// C-TP's sensitivity — depends directly on how deep into the distribution's
// tail the selector can reach. (It is also why this reproduction mines a
// dedicated large pool rather than its small evaluation split.)
type PoolAblationResult struct {
	PoolSizes []int
	// Flatness is the mean logit-std of the 50 selected corner images
	// (smaller = more corner-like).
	Flatness []float64
	// Dist is the mean all-class confidence distance at the reference σ.
	Dist []float64
}

// AblationCTPPool selects C-TP from progressively deeper pools on LeNet-5.
func (e *Env) AblationCTPPool() *PoolAblationResult {
	const model = "lenet5"
	net, _ := e.ModelFor(model)
	pool := e.PoolFor(model)
	fms := faults.MakeFaultySet(net, faults.LogNormal{Sigma: otpRefSigma(model)}, e.Scale.FaultModels, seedFaultBase+444)

	eng := engine.MustCompile(net, engine.Options{})
	res := &PoolAblationResult{}
	for _, n := range []int{500, 1000, 2000, 4000, pool.N()} {
		if n > pool.N() {
			continue
		}
		fmt.Fprintf(e.Log, "ablation pool=%d\n", n)
		sub := pool.Head(n)
		m := e.Scale.Patterns
		if m > n {
			m = n
		}
		p := testgen.SelectCTP(net, sub, m)
		// mean logit std of the selection
		logits, _ := eng.ForwardBatch(nil, p.X) // m ≥ 1: never empty
		k := logits.Dim(1)
		flat := 0.0
		for i := 0; i < p.M(); i++ {
			flat += tensor.FromSlice(logits.Data()[i*k:(i+1)*k], k).Std()
		}
		flat /= float64(p.M())

		golden := monitor.Capture(net, p)
		dists := make([]float64, len(fms))
		for i, fm := range fms {
			dists[i] = golden.Observe(fm).AllDist
		}
		res.PoolSizes = append(res.PoolSizes, n)
		res.Flatness = append(res.Flatness, flat)
		res.Dist = append(res.Dist, stats.Mean(dists))
	}
	return res
}

// Render prints the pool-depth ablation.
func (r *PoolAblationResult) Render() string {
	labels := make([]string, len(r.PoolSizes)+1)
	labels[0] = "pool size"
	for i, n := range r.PoolSizes {
		labels[i+1] = fmt.Sprintf("%d", n)
	}
	tab := newTable(labels...)
	tab.addFloatRow("selection logit-std", r.Flatness, "%.3f")
	tab.addFloatRow("all-dist @ ref σ", r.Dist, "%.4f")
	return "C-TP pool-depth ablation (LeNet-5, 50 patterns)\n" + tab.String()
}

// ADCAblationResult sweeps converter resolution on the crossbar simulator:
// at what DAC/ADC precision does the analog path stop costing accuracy?
// (ISAAC-class designs budget 8 bits; the sweep shows where the knee is for
// this workload.)
type ADCAblationResult struct {
	Bits     []int // 0 = ideal converters
	Accuracy []float64
	Images   int
}

// AblationADCBits maps LeNet-5 onto ideal-device crossbars and measures
// analog-path accuracy at each converter resolution.
func (e *Env) AblationADCBits() *ADCAblationResult {
	net, test := e.ModelFor("lenet5")
	eval := test.Head(40) // analog path is ~1000× slower than digital
	res := &ADCAblationResult{Bits: []int{2, 4, 6, 8, 0}, Images: eval.N()}
	for _, bits := range res.Bits {
		fmt.Fprintf(e.Log, "ablation adc bits=%d\n", bits)
		cfg := reram.DefaultConfig()
		cfg.Device.ProgramSigma = 0
		cfg.Device.DriftRate = 0
		cfg.Device.DriftJitter = 0
		cfg.DACBits, cfg.ADCBits = bits, bits
		accel := reram.NewAccelerator(net, cfg, 77)
		// batched analog readout: the accelerator runs each sample through
		// the same crossbar MatVec sequence as a per-sample loop would, but
		// its inference workspaces are reused across the whole sweep
		correct := 0
		const chunk = 8
		dim := eval.SampleDim()
		xd := eval.X.Data()
		for s := 0; s < eval.N(); s += chunk {
			end := s + chunk
			if end > eval.N() {
				end = eval.N()
			}
			batch := tensor.FromSlice(xd[s*dim:end*dim], end-s, dim)
			logits := accel.Infer(batch)
			k := logits.Dim(1)
			ld := logits.Data()
			for j := 0; j < end-s; j++ {
				if tensor.FromSlice(ld[j*k:(j+1)*k], k).ArgMax() == eval.Y[s+j] {
					correct++
				}
			}
		}
		res.Accuracy = append(res.Accuracy, float64(correct)/float64(eval.N()))
	}
	return res
}

// Render prints the converter-resolution ablation.
func (r *ADCAblationResult) Render() string {
	labels := make([]string, len(r.Bits)+1)
	labels[0] = "DAC/ADC bits"
	for i, b := range r.Bits {
		if b == 0 {
			labels[i+1] = "ideal"
		} else {
			labels[i+1] = fmt.Sprintf("%d", b)
		}
	}
	tab := newTable(labels...)
	cells := []string{fmt.Sprintf("accuracy (%d imgs)", r.Images)}
	for _, a := range r.Accuracy {
		cells = append(cells, pct(a))
	}
	tab.addRow(cells...)
	return "Crossbar converter-resolution ablation (LeNet-5, ideal cells)\n" + tab.String()
}

// RefSigmaAblationResult sweeps the σ of the reference fault model used
// during O-TP generation: how much does pattern quality depend on guessing
// the deployment error level right?
type RefSigmaAblationResult struct {
	RefSigmas []float64
	// Dist[i][j] is the mean all-dist of patterns generated at RefSigmas[i],
	// evaluated against fault models at RefSigmas[j].
	Dist [][]float64
}

// AblationOTPRefSigma cross-evaluates O-TP sets generated against different
// reference fault intensities.
func (e *Env) AblationOTPRefSigma() *RefSigmaAblationResult {
	const model = "lenet5"
	net, _ := e.ModelFor(model)
	res := &RefSigmaAblationResult{RefSigmas: []float64{0.1, 0.3, 0.5}}
	for _, genSigma := range res.RefSigmas {
		fmt.Fprintf(e.Log, "ablation ref-sigma gen=%.1f\n", genSigma)
		ref := faults.MakeFaulty(net, faults.LogNormal{Sigma: genSigma}, seedOTPRef)
		cfg := testgen.DefaultOTPConfig()
		cfg.MaxIters = 300
		p, _ := testgen.GenerateOTP(net, ref, 10, cfg, rng.New(seedOTPNoise))
		golden := monitor.Capture(net, p)
		row := make([]float64, len(res.RefSigmas))
		for j, evalSigma := range res.RefSigmas {
			fms := faults.MakeFaultySet(net, faults.LogNormal{Sigma: evalSigma}, e.Scale.FaultModels, seedFaultBase+555+int64(j))
			dists := make([]float64, len(fms))
			for i, fm := range fms {
				dists[i] = golden.Observe(fm).AllDist
			}
			row[j] = stats.Mean(dists)
		}
		res.Dist = append(res.Dist, row)
	}
	return res
}

// Render prints the reference-σ cross table.
func (r *RefSigmaAblationResult) Render() string {
	labels := []string{"generated at \\ evaluated at"}
	for _, s := range r.RefSigmas {
		labels = append(labels, fmt.Sprintf("σ=%.1f", s))
	}
	tab := newTable(labels...)
	for i, s := range r.RefSigmas {
		tab.addFloatRow(fmt.Sprintf("σref=%.1f", s), r.Dist[i], "%.4f")
	}
	var b strings.Builder
	b.WriteString("O-TP reference-σ ablation (LeNet-5, all-dist)\n")
	b.WriteString(tab.String())
	return b.String()
}
