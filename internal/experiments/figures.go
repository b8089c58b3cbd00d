package experiments

import (
	"fmt"
	"strings"

	"reramtest/internal/faults"
	"reramtest/internal/monitor"
	"reramtest/internal/stats"
)

// Fig3Result reproduces Fig. 3: mean top-ranked and all-class confidence
// distances per σ for every method, on both models.
type Fig3Result struct {
	Models []string
	Sigmas map[string][]float64
	Top    map[string]map[string][]float64 // model → method → per-σ
	All    map[string]map[string][]float64
}

// Fig3 projects the programming-error sweeps onto confidence distances.
func (e *Env) Fig3() *Fig3Result {
	res := &Fig3Result{Models: []string{"lenet5", "convnet7"},
		Sigmas: make(map[string][]float64),
		Top:    make(map[string]map[string][]float64),
		All:    make(map[string]map[string][]float64)}
	for _, model := range res.Models {
		sw := e.ProgrammingErrorSweep(model)
		res.Sigmas[model] = sw.Levels
		res.Top[model] = make(map[string][]float64)
		res.All[model] = make(map[string][]float64)
		for _, m := range Methods {
			res.Top[model][m] = sw.MeanTopDist(m)
			res.All[model][m] = sw.MeanAllDist(m)
		}
	}
	return res
}

// Render prints the four panels as series tables followed by ASCII charts.
func (f *Fig3Result) Render() string {
	var b strings.Builder
	for _, model := range f.Models {
		for _, panel := range []struct {
			name string
			data map[string][]float64
		}{
			{"top-ranked confidence distance", f.Top[model]},
			{"all confidence distance", f.All[model]},
		} {
			fmt.Fprintf(&b, "%s — %s\n", modelLabel(model), panel.name)
			tab := newTable(append([]string{"σ"}, floatLabels(f.Sigmas[model])...)...)
			for _, m := range Methods {
				tab.addFloatRow(methodLabel(m), panel.data[m], "%.4f")
			}
			b.WriteString(tab.String())
			b.WriteByte('\n')
		}
	}
	b.WriteString(f.Chart())
	return b.String()
}

// RateFigResult is the common shape of Figs. 4, 5 and 6: detection rates per
// error level, per method, per criterion, for both models.
type RateFigResult struct {
	Name      string
	Models    []string
	LevelName string
	Levels    map[string][]float64
	// Rates[model][method][criterion] per level
	Rates map[string]map[string]map[monitor.Criterion][]float64
	// Criteria reported by this figure
	Criteria []monitor.Criterion
}

func (e *Env) rateFigure(name string, criteria []monitor.Criterion, sweepFn func(string) *SweepResult) *RateFigResult {
	res := &RateFigResult{Name: name, Models: []string{"lenet5", "convnet7"},
		Levels:   make(map[string][]float64),
		Rates:    make(map[string]map[string]map[monitor.Criterion][]float64),
		Criteria: criteria}
	for _, model := range res.Models {
		sw := sweepFn(model)
		res.LevelName = sw.LevelName
		res.Levels[model] = sw.Levels
		res.Rates[model] = make(map[string]map[monitor.Criterion][]float64)
		for _, m := range Methods {
			res.Rates[model][m] = make(map[monitor.Criterion][]float64)
			for _, c := range criteria {
				res.Rates[model][m][c] = sw.Rates(m, c)
			}
		}
	}
	return res
}

// Fig4 reproduces Fig. 4: detection rate vs σ on the confidence-distance
// criteria (SDC-T5%, SDC-T10%, SDC-A3%, SDC-A5%).
func (e *Env) Fig4() *RateFigResult {
	return e.rateFigure("Fig4",
		[]monitor.Criterion{monitor.SDCT5, monitor.SDCT10, monitor.SDCA3, monitor.SDCA5},
		e.ProgrammingErrorSweep)
}

// Fig5 reproduces Fig. 5: detection rate vs σ on the class-change criteria
// (SDC-1, SDC-5).
func (e *Env) Fig5() *RateFigResult {
	return e.rateFigure("Fig5",
		[]monitor.Criterion{monitor.SDC1, monitor.SDC5},
		e.ProgrammingErrorSweep)
}

// Fig6 reproduces Fig. 6: detection rates under random soft errors on all
// six criteria.
func (e *Env) Fig6() *RateFigResult {
	return e.rateFigure("Fig6", monitor.AllCriteria, e.RandomSoftSweep)
}

// Render prints one series table per (model, criterion) panel.
func (f *RateFigResult) Render() string {
	var b strings.Builder
	for _, model := range f.Models {
		for _, c := range f.Criteria {
			fmt.Fprintf(&b, "%s — detection rate, %s\n", modelLabel(model), c)
			tab := newTable(append([]string{f.LevelName}, floatLabels(f.Levels[model])...)...)
			for _, m := range Methods {
				if m == "otp" && !otpApplies(c) {
					continue
				}
				rates := f.Rates[model][m][c]
				cells := []string{methodLabel(m)}
				for _, r := range rates {
					cells = append(cells, pct(r))
				}
				tab.addRow(cells...)
			}
			b.WriteString(tab.String())
			b.WriteByte('\n')
		}
	}
	b.WriteString(f.Chart())
	return b.String()
}

// Fig7Result reproduces Fig. 7: the standard deviation (across fault models)
// of the confidence distance as a function of the number of test patterns —
// the paper's pattern-budget efficiency analysis. AET/C-TP use top-ranked
// distance (panels a, c), O-TP all-class distance (panels b, d).
type Fig7Result struct {
	Models []string
	// Counts[model][method] — pattern budgets evaluated
	Counts map[string]map[string][]int
	// Std[model][method] — std of confidence distance at each budget
	Std map[string]map[string][]float64
}

// Fig7 sweeps the pattern budget at a fixed mid-range σ.
func (e *Env) Fig7() *Fig7Result {
	res := &Fig7Result{Models: []string{"lenet5", "convnet7"},
		Counts: make(map[string]map[string][]int),
		Std:    make(map[string]map[string][]float64)}
	for _, model := range res.Models {
		net, _ := e.ModelFor(model)
		sigma := otpRefSigma(model)
		fms := faults.MakeFaultySet(net, faults.LogNormal{Sigma: sigma}, e.Scale.FaultModels, seedFaultBase+7777)
		res.Counts[model] = make(map[string][]int)
		res.Std[model] = make(map[string][]float64)
		for _, m := range Methods {
			var counts []int
			if m == "otp" {
				n := e.OTPPatternCount(model)
				counts = capCounts([]int{n, 2 * n, 3 * n, 5 * n}, e.Scale.MaxPatterns)
			} else {
				counts = capCounts([]int{10, 25, 50, 100, 150, 200}, e.Scale.MaxPatterns)
			}
			full := e.Patterns(model, m, counts[len(counts)-1])
			var stds []float64
			for _, cnt := range counts {
				golden := monitor.Capture(net, full.Head(cnt))
				dists := make([]float64, len(fms))
				for i, fm := range fms {
					o := golden.Observe(fm)
					if m == "otp" {
						dists[i] = o.AllDist
					} else {
						dists[i] = o.TopDist
					}
				}
				stds = append(stds, stats.Std(dists))
			}
			res.Counts[model][m] = counts
			res.Std[model][m] = stds
		}
	}
	return res
}

// capCounts drops pattern budgets above the scale's cap, always keeping at
// least the smallest.
func capCounts(counts []int, cap int) []int {
	out := counts[:1]
	for _, c := range counts[1:] {
		if c <= cap {
			out = append(out, c)
		}
	}
	return out
}

// Render prints one series per method.
func (f *Fig7Result) Render() string {
	var b strings.Builder
	for _, model := range f.Models {
		fmt.Fprintf(&b, "%s — std of confidence distance vs #patterns (σ fixed)\n", modelLabel(model))
		for _, m := range Methods {
			counts := f.Counts[model][m]
			labels := make([]string, len(counts))
			for i, c := range counts {
				labels[i] = fmt.Sprintf("%d", c)
			}
			tab := newTable(append([]string{"#patterns"}, labels...)...)
			tab.addFloatRow(methodLabel(m), f.Std[model][m], "%.4f")
			b.WriteString(tab.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig8Result reproduces Fig. 8: model accuracy and the confidence distance
// of each pattern type side by side per σ, exposing how well each method's
// signal tracks the true accuracy loss.
type Fig8Result struct {
	Model    string
	Sigmas   []float64
	Accuracy []float64
	// Dist[method] — mean all-class confidence distance per σ; includes the
	// "plain" original-test-image baseline.
	Dist map[string][]float64
	// Slope and R of the distance-vs-(1-accuracy) linear fit, per method:
	// the paper's linearity argument for O-TP.
	Slope map[string]float64
	R     map[string]float64
	// Levels is the paper's "levels of confidence distance" count: the
	// distance range in units of 0.01.
	Levels map[string]int
}

// Fig8 combines the accuracy sweep with per-method distances and adds the
// "plain" baseline series.
func (e *Env) Fig8() *Fig8Result {
	const model = "lenet5"
	acc := e.AccuracySweep(model)
	sw := e.ProgrammingErrorSweep(model)
	res := &Fig8Result{Model: model, Sigmas: sw.Levels, Accuracy: acc.MeanAcc,
		Dist: make(map[string][]float64), Slope: make(map[string]float64),
		R: make(map[string]float64), Levels: make(map[string]int)}
	for _, m := range Methods {
		res.Dist[m] = sw.MeanAllDist(m)
	}
	// the plain-images baseline is not part of the main sweep: score it here
	net, _ := e.ModelFor(model)
	golden := monitor.Capture(net, e.Patterns(model, "plain", e.Scale.Patterns))
	plain := make([]float64, len(sw.Levels))
	for li := range sw.Levels {
		fms := faults.MakeFaultySet(net, faults.LogNormal{Sigma: sw.Levels[li]}, e.Scale.AccModels, seedFaultBase+int64(li)*977)
		dists := make([]float64, len(fms))
		for i, fm := range fms {
			dists[i] = golden.Observe(fm).AllDist
		}
		plain[li] = stats.Mean(dists)
	}
	res.Dist["plain"] = plain

	loss := make([]float64, len(res.Accuracy))
	for i, a := range res.Accuracy {
		loss[i] = 1 - a
	}
	for m, d := range res.Dist {
		slope, _, r := stats.LinearFit(loss, d)
		res.Slope[m] = slope
		res.R[m] = r
		lo, hi := stats.MinMax(d)
		res.Levels[m] = int((hi - lo) / 0.01)
	}
	return res
}

// CalibrationCurve exports the (distance, accuracy) pairs for a method —
// the input the runtime monitor's accuracy estimator consumes.
func (f *Fig8Result) CalibrationCurve(method string) (dist, acc []float64) {
	return f.Dist[method], f.Accuracy
}

// Render prints the joint accuracy/distance table and the linearity fits.
func (f *Fig8Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — confidence distance vs model accuracy\n", modelLabel(f.Model))
	tab := newTable(append([]string{"σ"}, floatLabels(f.Sigmas)...)...)
	accRow := []string{"accuracy"}
	for _, a := range f.Accuracy {
		accRow = append(accRow, pct(a))
	}
	tab.addRow(accRow...)
	for _, m := range []string{"plain", "aet", "ctp", "otp"} {
		tab.addFloatRow(methodLabel(m)+" dist", f.Dist[m], "%.4f")
	}
	b.WriteString(tab.String())
	b.WriteString("\nlinearity of distance vs accuracy loss (higher |r| = better tracking):\n")
	fit := newTable("method", "slope", "r", "distance levels (0.01 units)")
	for _, m := range []string{"plain", "aet", "ctp", "otp"} {
		fit.addRow(methodLabel(m), fmt.Sprintf("%.3f", f.Slope[m]), fmt.Sprintf("%.3f", f.R[m]), fmt.Sprintf("%d", f.Levels[m]))
	}
	b.WriteString(fit.String())
	b.WriteByte('\n')
	b.WriteString(f.Chart())
	return b.String()
}
