package experiments

import (
	"fmt"
	"strings"

	"reramtest/internal/engine"
	"reramtest/internal/faults"
	"reramtest/internal/monitor"
	"reramtest/internal/stats"
)

// AccuracyTable reproduces Tables I/II: mean accuracy of fault models per
// programming-error σ, with the clean model's accuracy at σ = 0.
type AccuracyTable struct {
	Model    string
	CleanAcc float64
	Sigmas   []float64
	MeanAcc  []float64 // per σ, averaged over Scale.AccModels fault models
	StdAcc   []float64
}

// AccuracySweep measures (or returns cached) accuracy degradation per σ.
func (e *Env) AccuracySweep(model string) *AccuracyTable {
	if t, ok := e.accCache[model]; ok {
		return t
	}
	net, test := e.ModelFor(model)
	eval := test.Head(e.Scale.AccImages)
	t := &AccuracyTable{Model: model, Sigmas: SigmasFor(model)}
	// one plan per model, rebound to each fault model in turn: every
	// fault model is a clone of net
	eng := engine.MustCompile(net, engine.Options{})
	t.CleanAcc = eng.Accuracy(eval.X, eval.Y, 64)
	t.MeanAcc = make([]float64, len(t.Sigmas))
	t.StdAcc = make([]float64, len(t.Sigmas))
	for si, sigma := range t.Sigmas {
		fmt.Fprintf(e.Log, "accuracy sweep %s sigma=%.2f\n", model, sigma)
		accs := make([]float64, e.Scale.AccModels)
		fms := faults.MakeFaultySet(net, faults.LogNormal{Sigma: sigma}, e.Scale.AccModels, seedFaultBase+9000+int64(si)*131)
		for i, fm := range fms {
			if err := eng.Rebind(fm); err != nil {
				panic(err)
			}
			accs[i] = eng.Accuracy(eval.X, eval.Y, 64)
		}
		t.MeanAcc[si] = stats.Mean(accs)
		t.StdAcc[si] = stats.Std(accs)
	}
	e.accCache[model] = t
	return t
}

// Render prints the table in the paper's row layout.
func (t *AccuracyTable) Render() string {
	tab := newTable(append([]string{"weight error (σ)", "0 (original)"}, floatLabels(t.Sigmas)...)...)
	cells := []string{"accuracy", pct(t.CleanAcc)}
	for _, a := range t.MeanAcc {
		cells = append(cells, pct(a))
	}
	tab.addRow(cells...)
	return fmt.Sprintf("%s accuracy vs programming error\n%s", modelLabel(t.Model), tab)
}

// Table1 reproduces Table I (LeNet-5 accuracy vs σ).
func (e *Env) Table1() *AccuracyTable { return e.AccuracySweep("lenet5") }

// Table2 reproduces Table II (ConvNet-7 accuracy vs σ).
func (e *Env) Table2() *AccuracyTable { return e.AccuracySweep("convnet7") }

// Table3Result reproduces Table III: average detection rate per method per
// criterion, over all σ, for both models. Following the paper, O-TP is
// scored only on the SDC-A criteria — its golden top-1 class is meaningless
// by construction (near-uniform confidences), so top-ranked criteria do not
// apply.
type Table3Result struct {
	Models []string
	// Rates[model][method][criterion]
	Rates map[string]map[string]map[monitor.Criterion]float64
}

// Table3 computes the average detection rates from the programming-error
// sweeps.
func (e *Env) Table3() *Table3Result {
	res := &Table3Result{Models: []string{"lenet5", "convnet7"},
		Rates: make(map[string]map[string]map[monitor.Criterion]float64)}
	for _, model := range res.Models {
		sw := e.ProgrammingErrorSweep(model)
		res.Rates[model] = make(map[string]map[monitor.Criterion]float64)
		for _, m := range Methods {
			res.Rates[model][m] = make(map[monitor.Criterion]float64)
			for _, c := range monitor.AllCriteria {
				res.Rates[model][m][c] = sw.AvgRate(m, c)
			}
		}
	}
	return res
}

// otpApplies reports whether a criterion is meaningful for O-TP.
func otpApplies(c monitor.Criterion) bool {
	return c == monitor.SDCA3 || c == monitor.SDCA5
}

// Render prints Table III in the paper's layout.
func (t *Table3Result) Render() string {
	var b strings.Builder
	for _, model := range t.Models {
		fmt.Fprintf(&b, "%s\n", modelLabel(model))
		tab := newTable("", "SDC-1", "SDC-5", "SDC-T5%", "SDC-T10%", "SDC-A3%", "SDC-A5%")
		for _, m := range Methods {
			cells := []string{methodLabel(m)}
			for _, c := range monitor.AllCriteria {
				if m == "otp" && !otpApplies(c) {
					cells = append(cells, "-")
					continue
				}
				cells = append(cells, pct(t.Rates[model][m][c]))
			}
			tab.addRow(cells...)
		}
		b.WriteString(tab.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Table4Result reproduces Table IV: the coefficient of variation of the
// confidence distance across fault models, per σ, on LeNet-5.
type Table4Result struct {
	Sigmas []float64
	// CV[method] per σ
	CV map[string][]float64
}

// Table4 computes the stability metric from the LeNet-5 sweep.
func (e *Env) Table4() *Table4Result {
	sw := e.ProgrammingErrorSweep("lenet5")
	res := &Table4Result{Sigmas: sw.Levels, CV: make(map[string][]float64)}
	for _, m := range Methods {
		res.CV[m] = sw.CVAllDist(m)
	}
	return res
}

// Render prints Table IV in the paper's layout.
func (t *Table4Result) Render() string {
	tab := newTable(append([]string{"weight variance (σ)"}, floatLabels(t.Sigmas)...)...)
	for _, m := range Methods {
		tab.addFloatRow(methodLabel(m), t.CV[m], "%.2f")
	}
	return "CV of confidence distance (LeNet-5)\n" + tab.String()
}

func floatLabels(vals []float64) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprintf("%g", v)
	}
	return out
}
