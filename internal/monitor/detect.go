package monitor

import (
	"fmt"
	"math"

	"reramtest/internal/engine"
	"reramtest/internal/nn"
	"reramtest/internal/stats"
	"reramtest/internal/tensor"
	"reramtest/internal/testgen"
)

// Criterion is one of the paper's six SDC detection rules.
type Criterion int

// The six detection criteria of §IV-A.
const (
	// SDC1 flags a fault when any pattern's top-1 class changes.
	SDC1 Criterion = iota
	// SDC5 flags a fault when any pattern's ranked top-5 class list changes.
	SDC5
	// SDCT5 flags a fault when the mean top-ranked confidence distance
	// exceeds 5%.
	SDCT5
	// SDCT10 flags a fault when the mean top-ranked confidence distance
	// exceeds 10%.
	SDCT10
	// SDCA3 flags a fault when the mean all-class confidence distance
	// exceeds 3% (introduced by the paper for O-TP, whose golden top-1 is
	// deliberately meaningless).
	SDCA3
	// SDCA5 is SDCA3 with a 5% threshold.
	SDCA5
)

// AllCriteria lists the criteria in the order the paper's Table III reports
// them.
var AllCriteria = []Criterion{SDC1, SDC5, SDCT5, SDCT10, SDCA3, SDCA5}

// String returns the paper's name for the criterion.
func (c Criterion) String() string {
	switch c {
	case SDC1:
		return "SDC-1"
	case SDC5:
		return "SDC-5"
	case SDCT5:
		return "SDC-T5%"
	case SDCT10:
		return "SDC-T10%"
	case SDCA3:
		return "SDC-A3%"
	case SDCA5:
		return "SDC-A5%"
	default:
		return fmt.Sprintf("Criterion(%d)", int(c))
	}
}

// topK returns the indices of the k largest entries of row, in descending
// order (ties broken by class index for determinism).
func topK(row []float64, k int) []int {
	if k > len(row) {
		k = len(row)
	}
	out := make([]int, 0, k)
	used := make([]bool, len(row))
	for len(out) < k {
		best, bi := math.Inf(-1), -1
		for j, v := range row {
			if !used[j] && v > best {
				best, bi = v, j
			}
		}
		if bi == -1 {
			// every remaining entry is NaN (NaN compares false against
			// anything): fall back to the first unused index so a poisoned
			// readout still yields a well-formed — and golden-divergent —
			// ranking instead of an out-of-range panic
			for j := range row {
				if !used[j] {
					bi = j
					break
				}
			}
		}
		used[bi] = true
		out = append(out, bi)
	}
	return out
}

// Golden is the commissioning-time reference: the ideal model's confidences
// on the pattern set.
type Golden struct {
	Patterns *testgen.PatternSet
	Probs    *tensor.Tensor // (M, n) softmax confidences
	Classes  int
	Top1     []int
	Top5     [][]int

	// eng is the cached batch-inference plan Observe compiles on first use
	// and rebinds across the fault-model sweep: every model in a sweep
	// shares the ideal model's architecture, so one set of workspaces serves
	// the whole sweep.
	eng *engine.Engine
}

// Capture runs the pattern set through the ideal model and records its
// softmax confidences and top-k rankings.
func Capture(ideal *nn.Network, patterns *testgen.PatternSet) *Golden {
	probs := engine.MustCompile(ideal, engine.Options{}).Probs(patterns.X).Clone()
	m, n := probs.Dim(0), probs.Dim(1)
	g := &Golden{Patterns: patterns, Probs: probs, Classes: n,
		Top1: make([]int, m), Top5: make([][]int, m)}
	pd := probs.Data()
	for i := 0; i < m; i++ {
		row := pd[i*n : (i+1)*n]
		t5 := topK(row, 5)
		g.Top5[i] = t5
		g.Top1[i] = t5[0]
	}
	return g
}

// Observation is the result of running the pattern set on a target
// (possibly faulty) model and comparing against the golden reference.
type Observation struct {
	// TopDist is the mean over patterns of |p_t[c*] − p_i[c*]| where c* is
	// the golden top-1 class: the paper's top-ranked confidence distance
	// (SDC-T measurements, Fig. 3 left panels).
	TopDist float64
	// AllDist is the mean over patterns and classes of |p_t[c] − p_i[c]|:
	// the paper's all-confidence distance (SDC-A measurements, Fig. 3 right
	// panels).
	AllDist float64
	// Top1Changes counts patterns whose top-1 class flipped.
	Top1Changes int
	// Top5Changes counts patterns whose ranked top-5 list changed.
	Top5Changes int
	// PerPatternTop holds |Δ confidence| of the golden top class, per
	// pattern (used by the Fig. 7 pattern-count sweep).
	PerPatternTop []float64
	// PerPatternAll holds the per-pattern mean all-class distance.
	PerPatternAll []float64
	// NonFinite counts NaN/Inf confidence entries in the observed batch.
	// Each such entry contributes the maximum per-class distance (1.0)
	// instead of poisoning the aggregate with NaN — a fault model emitting
	// NaN logits must never look Healthy.
	NonFinite int
}

// Observe runs the patterns through target and scores the divergence from
// the golden reference. The forward pass goes through a cached batch
// inference plan that each call rebinds to target.
func (g *Golden) Observe(target *nn.Network) Observation {
	return g.ObserveProbs(g.probsOf(target))
}

// probsOf computes target's softmax confidences on the pattern batch,
// reusing the cached engine when target matches its compiled architecture.
func (g *Golden) probsOf(target *nn.Network) *tensor.Tensor {
	if g.eng == nil || g.eng.Rebind(target) != nil {
		g.eng = engine.MustCompile(target, engine.Options{})
	}
	return g.eng.Probs(g.Patterns.X)
}

// ObserveProbs scores an externally produced (M, n) confidence batch — e.g.
// from the ReRAM crossbar simulator — against the golden reference.
func (g *Golden) ObserveProbs(probs *tensor.Tensor) Observation {
	m, n := g.Probs.Dim(0), g.Classes
	if probs.Len() != m*n {
		panic(fmt.Sprintf("detect: observation shape %v does not match golden (%d, %d)", probs.Shape(), m, n))
	}
	o := Observation{PerPatternTop: make([]float64, m), PerPatternAll: make([]float64, m)}
	gd, td := g.Probs.Data(), probs.Data()
	for i := 0; i < m; i++ {
		grow := gd[i*n : (i+1)*n]
		trow := td[i*n : (i+1)*n]
		cstar := g.Top1[i]
		o.PerPatternTop[i] = classDist(trow[cstar], grow[cstar])
		all := 0.0
		for c := 0; c < n; c++ {
			if !isFinite(trow[c]) {
				o.NonFinite++
			}
			all += classDist(trow[c], grow[c])
		}
		o.PerPatternAll[i] = all / float64(n)
		t5 := topK(trow, 5)
		if t5[0] != g.Top1[i] {
			o.Top1Changes++
		}
		for k := range t5 {
			if t5[k] != g.Top5[i][k] {
				o.Top5Changes++
				break
			}
		}
	}
	o.TopDist = stats.Mean(o.PerPatternTop)
	o.AllDist = stats.Mean(o.PerPatternAll)
	return o
}

// isFinite reports whether v is neither NaN nor ±Inf.
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// classDist is the per-class confidence distance |t − g|, capped at the
// maximum possible softmax divergence (1.0) when the observed confidence is
// NaN or infinite. Without the cap a single NaN entry turns the mean
// distance into NaN, every threshold comparison into false, and a severely
// broken accelerator into "Healthy".
func classDist(t, g float64) float64 {
	if !isFinite(t) {
		return 1
	}
	return math.Abs(t - g)
}

// Detect applies one criterion to the observation.
func (o Observation) Detect(c Criterion) bool {
	switch c {
	case SDC1:
		return o.Top1Changes > 0
	case SDC5:
		return o.Top5Changes > 0
	case SDCT5:
		return o.TopDist > 0.05
	case SDCT10:
		return o.TopDist > 0.10
	case SDCA3:
		return o.AllDist > 0.03
	case SDCA5:
		return o.AllDist > 0.05
	default:
		panic(fmt.Sprintf("detect: unknown criterion %d", int(c)))
	}
}
