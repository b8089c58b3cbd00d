package experiments

import (
	"fmt"

	"reramtest/internal/faults"
	"reramtest/internal/monitor"
	"reramtest/internal/stats"
)

// SweepResult holds every observation of one error-model sweep: for each
// error level and each method, the detection observations of all fault
// models. Tables III/IV and Figs. 3-5 (programming error) and Fig. 6
// (random soft error) are all projections of this structure, so the
// expensive model evaluations run exactly once per (model, error-model)
// pair.
type SweepResult struct {
	Model     string
	LevelName string    // "sigma" for programming error, "p" for soft error
	Levels    []float64 // error intensities swept
	// Obs[method][level] holds one Observation per fault model.
	Obs map[string][][]monitor.Observation
}

// injectorFor builds the level-i injector of the sweep.
type injectorFor func(level float64) faults.Injector

// sweep evaluates all methods against shared fault-model sets.
func (e *Env) sweep(model, levelName string, levels []float64, mk injectorFor) *SweepResult {
	key := fmt.Sprintf("%s-%s", model, levelName)
	if s, ok := e.sweepCache[key]; ok {
		return s
	}
	net, _ := e.ModelFor(model)
	res := &SweepResult{Model: model, LevelName: levelName, Levels: levels,
		Obs: make(map[string][][]monitor.Observation)}

	// golden references are captured once per method
	goldens := make(map[string]*monitor.Golden, len(Methods))
	for _, m := range Methods {
		goldens[m] = monitor.Capture(net, e.PatternsDefault(model, m))
		res.Obs[m] = make([][]monitor.Observation, len(levels))
	}

	for li, level := range levels {
		inj := mk(level)
		// the same fault models are scored by every method (fair comparison)
		fms := faults.MakeFaultySet(net, inj, e.Scale.FaultModels, seedFaultBase+int64(li)*977)
		fmt.Fprintf(e.Log, "sweep %s %s=%.3f: %d fault models\n", model, levelName, level, len(fms))
		for _, m := range Methods {
			obs := make([]monitor.Observation, len(fms))
			for fi, fm := range fms {
				obs[fi] = goldens[m].Observe(fm)
			}
			res.Obs[m][li] = obs
		}
	}
	e.sweepCache[key] = res
	return res
}

// ProgrammingErrorSweep runs (or returns the cached) lognormal-variation
// sweep for the model, over the paper's σ grid.
func (e *Env) ProgrammingErrorSweep(model string) *SweepResult {
	return e.sweep(model, "sigma", SigmasFor(model), func(s float64) faults.Injector {
		return faults.LogNormal{Sigma: s}
	})
}

// RandomSoftSweep runs (or returns the cached) random-soft-error sweep over
// the paper's per-model probability grid.
func (e *Env) RandomSoftSweep(model string) *SweepResult {
	ps := LeNetSoftPs
	if model == "convnet7" {
		ps = ConvNetSoftPs
	}
	return e.sweep(model, "p", ps, func(p float64) faults.Injector {
		return faults.RandomSoft{P: p}
	})
}

// MeanTopDist returns the per-level mean top-ranked confidence distance for
// a method (Fig. 3 left panels).
func (s *SweepResult) MeanTopDist(method string) []float64 {
	return s.project(method, func(o monitor.Observation) float64 { return o.TopDist })
}

// MeanAllDist returns the per-level mean all-class confidence distance
// (Fig. 3 right panels).
func (s *SweepResult) MeanAllDist(method string) []float64 {
	return s.project(method, func(o monitor.Observation) float64 { return o.AllDist })
}

// CVAllDist returns the per-level coefficient of variation of the all-class
// confidence distance across fault models (Table IV's stability metric).
func (s *SweepResult) CVAllDist(method string) []float64 {
	out := make([]float64, len(s.Levels))
	for li := range s.Levels {
		xs := make([]float64, len(s.Obs[method][li]))
		for i, o := range s.Obs[method][li] {
			xs[i] = o.AllDist
		}
		out[li] = stats.CV(xs)
	}
	return out
}

// Rates returns the per-level detection rate of the method under one
// criterion (Figs. 4-6).
func (s *SweepResult) Rates(method string, c monitor.Criterion) []float64 {
	out := make([]float64, len(s.Levels))
	for li := range s.Levels {
		n := 0
		for _, o := range s.Obs[method][li] {
			if o.Detect(c) {
				n++
			}
		}
		out[li] = float64(n) / float64(len(s.Obs[method][li]))
	}
	return out
}

// AvgRate averages the detection rate over all levels (Table III).
func (s *SweepResult) AvgRate(method string, c monitor.Criterion) float64 {
	return stats.Mean(s.Rates(method, c))
}

func (s *SweepResult) project(method string, f func(monitor.Observation) float64) []float64 {
	out := make([]float64, len(s.Levels))
	for li := range s.Levels {
		xs := make([]float64, len(s.Obs[method][li]))
		for i, o := range s.Obs[method][li] {
			xs[i] = f(o)
		}
		out[li] = stats.Mean(xs)
	}
	return out
}
