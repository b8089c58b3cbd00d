// Package monitor assembles the paper's pieces into the deployable artifact
// its title promises: a run-time health monitor for a ReRAM DNN accelerator.
// A Monitor owns a small pattern set and its golden confidences; each Check
// pushes the patterns through the (possibly degraded) accelerator, measures
// the confidence distance, classifies the health status, estimates the
// accuracy loss via a Fig.-8-style calibration curve, and recommends the
// cheapest adequate repair action (§I: different repair mechanisms suit
// different fault severities).
//
// Pattern choice matters for coverage. O-TP patterns have uniform golden
// confidences, so any fault that *also* drives outputs toward uniform — in
// particular pure multiplicative resistance drift, which shrinks every
// weight and collapses the logits — produces near-zero confidence distance
// on them: a structural blind spot of the SDC-A criterion on O-TP. C-TP
// patterns have peaked goldens and catch that fault class. Monitors guarding
// drift-prone devices should arm C-TP (or a C-TP + O-TP mix); O-TP remains
// the better accuracy estimator for bias-style faults (see cmd/monitor).
//
// Underneath sits the paper's fault-detection machinery (detect.go): golden
// output capture, the six SDC detection criteria (§IV-A "Metrics"), the
// confidence-distance measurements of Fig. 3, the detection rate of Fig. 4-6
// and Table III, and the coefficient-of-variation stability metric of
// Table IV. The flow mirrors the concurrent-test deployment: at
// commissioning time the ideal (fault-free) model's softmax confidences on
// the test-pattern set are captured as the golden reference; at run time the
// same patterns are pushed through the possibly-degraded accelerator and the
// divergence between the two confidence sets is scored.
package monitor

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"

	"reramtest/internal/engine"
	"reramtest/internal/nn"
	"reramtest/internal/stats"
	"reramtest/internal/tensor"
	"reramtest/internal/testgen"
)

// Status is the coarse health classification of the accelerator.
type Status int

// Health statuses in increasing severity.
const (
	// Healthy: confidence distance within the noise floor; no action.
	Healthy Status = iota
	// Degraded: measurable drift; accuracy loss small but non-zero.
	Degraded
	// Impaired: significant accuracy loss; on-device repair advised.
	Impaired
	// Critical: severe loss; device needs cloud retraining or remapping.
	Critical
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Healthy:
		return "HEALTHY"
	case Degraded:
		return "DEGRADED"
	case Impaired:
		return "IMPAIRED"
	case Critical:
		return "CRITICAL"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Action is the recommended repair mechanism for a status (§I of the paper:
// repairs have different costs and suit different severities).
func (s Status) Action() string {
	switch s {
	case Healthy:
		return "none"
	case Degraded:
		return "schedule crossbar reprogramming at next idle window"
	case Impaired:
		return "fault-aware remapping / redundancy substitution"
	default:
		return "cloud-edge collaborative retraining or module replacement"
	}
}

// CalibPoint is one (confidence distance → accuracy) calibration sample,
// produced offline by sweeping fault intensities (the data behind Fig. 8).
type CalibPoint struct {
	Distance float64 // mean all-class confidence distance
	Accuracy float64 // measured model accuracy at that distance
}

// The decision thresholds on the mean all-class confidence distance (the
// paper's most sensitive aggregate, SDC-A): 3% distance marks degradation and
// larger multiples mark escalating damage.
const (
	DegradedAt = 0.03
	ImpairedAt = 0.06
	CriticalAt = 0.10
)

// MaxHistory bounds the retained report history (a ring buffer), so
// long-running deployments never leak.
const MaxHistory = 512

// Monitor is a commissioned concurrent-test agent for one accelerator.
type Monitor struct {
	golden  *Golden
	calib   []CalibPoint
	history []Report // ring buffer once MaxHistory is reached
	start   int      // index of the oldest retained report
	rounds  int      // total checks ever run (Round numbering survives eviction)
}

// New commissions a monitor: it captures golden confidences of the ideal
// model on the pattern set. calib may be nil (accuracy estimates are then
// omitted) or a Fig.-8-style curve sorted in any order.
func New(ideal *nn.Network, patterns *testgen.PatternSet, calib []CalibPoint) *Monitor {
	m := &Monitor{golden: Capture(ideal, patterns), calib: append([]CalibPoint(nil), calib...)}
	sort.Slice(m.calib, func(i, j int) bool { return m.calib[i].Distance < m.calib[j].Distance })
	return m
}

// Recommission recaptures the golden reference against a new ideal model —
// required after a retraining repair changes the deployed weights, so the
// monitor stops comparing the accelerator to a model that no longer exists.
// History and calibration are preserved.
func (m *Monitor) Recommission(ideal *nn.Network) {
	m.golden = Capture(ideal, m.golden.Patterns)
}

// Fingerprint digests the commission: the stimulus patterns and the golden
// confidences captured from the reference model, hashed bit-exactly. Two
// monitors with equal fingerprints will classify identical readouts
// identically, so a crash-recovery journal records the fingerprint and a
// replayed supervisor verifies its freshly recommissioned monitors against
// it — catching the silent failure mode where a restart commissions against
// the wrong (stale or retrained-away) reference model.
func (m *Monitor) Fingerprint() uint64 {
	h := fnv.New64a()
	var b [8]byte
	writeF := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	binary.LittleEndian.PutUint64(b[:], uint64(m.golden.Classes))
	h.Write(b[:])
	for _, v := range m.golden.Patterns.X.Data() {
		writeF(v)
	}
	for _, v := range m.golden.Probs.Data() {
		writeF(v)
	}
	return h.Sum64()
}

// Report is the outcome of one concurrent-test round.
type Report struct {
	Round       int
	TopDist     float64
	AllDist     float64
	Detected    map[Criterion]bool
	Status      Status
	EstAccuracy float64 // -1 when no calibration curve is loaded
	Action      string
	// NonFinite counts NaN/Inf confidence entries in the readout. Any
	// non-finite entry is itself evidence of a fault (poisoned datapath or
	// sensor), so such a round never classifies as Healthy.
	NonFinite int
}

// String renders the report on one line.
func (r Report) String() string {
	var flags []string
	for _, c := range AllCriteria {
		if r.Detected[c] {
			flags = append(flags, c.String())
		}
	}
	acc := "n/a"
	if r.EstAccuracy >= 0 {
		acc = fmt.Sprintf("%.1f%%", 100*r.EstAccuracy)
	}
	return fmt.Sprintf("round %d: status=%s allDist=%.4f topDist=%.4f estAcc=%s flags=[%s] action=%s",
		r.Round, r.Status, r.AllDist, r.TopDist, acc, strings.Join(flags, ","), r.Action)
}

// Infer is the accelerator interface the monitor drives: given the pattern
// batch it returns softmax confidences (M, classes). It abstracts over the
// weight-level fault models and the device-level crossbar simulator.
type Infer func(x *tensor.Tensor) *tensor.Tensor

// NetworkInfer adapts an nn.Network into an Infer. The returned Infer runs
// the whole pattern batch through a compiled engine (allocation-free in
// steady state); weight changes made through the network's Params remain
// visible because the kernels read the parameter tensors at call time.
func NetworkInfer(net *nn.Network) Infer {
	return engine.MustCompile(net, engine.Options{}).Probs
}

// Check runs one concurrent-test round against the accelerator.
func (m *Monitor) Check(accel Infer) Report {
	probs := accel(m.golden.Patterns.X)
	o := m.golden.ObserveProbs(probs)
	m.rounds++
	rep := Report{
		Round:       m.rounds,
		TopDist:     o.TopDist,
		AllDist:     o.AllDist,
		Detected:    make(map[Criterion]bool, len(AllCriteria)),
		EstAccuracy: -1,
		NonFinite:   o.NonFinite,
	}
	for _, c := range AllCriteria {
		rep.Detected[c] = o.Detect(c)
	}
	switch {
	case math.IsNaN(o.AllDist) || o.AllDist >= CriticalAt:
		// a NaN aggregate means the readout is garbage end to end; treat it
		// as the worst case rather than letting NaN comparisons fall through
		// to Healthy
		rep.Status = Critical
	case o.AllDist >= ImpairedAt:
		rep.Status = Impaired
	case o.AllDist >= DegradedAt:
		rep.Status = Degraded
	default:
		rep.Status = Healthy
	}
	if rep.NonFinite > 0 && rep.Status == Healthy {
		// even a single NaN/Inf confidence disqualifies a Healthy verdict:
		// the distance sum caps each poisoned entry, but the entry itself
		// proves the datapath is broken
		rep.Status = Degraded
	}
	rep.Action = rep.Status.Action()
	if len(m.calib) > 0 {
		rep.EstAccuracy = m.EstimateAccuracy(o.AllDist)
	}
	m.record(rep)
	return rep
}

// record appends rep to the bounded history, evicting the oldest entry once
// MaxHistory is reached.
func (m *Monitor) record(rep Report) {
	if len(m.history) < MaxHistory {
		m.history = append(m.history, rep)
		return
	}
	m.history[m.start] = rep
	m.start = (m.start + 1) % len(m.history)
}

// EstimateAccuracy interpolates the calibration curve at the observed
// distance (clamping outside the calibrated range). A NaN or +Inf distance —
// a poisoned readout — pessimistically maps to the worst calibrated
// accuracy instead of silently propagating NaN through the estimate.
func (m *Monitor) EstimateAccuracy(dist float64) float64 {
	if len(m.calib) == 0 {
		return -1
	}
	if math.IsNaN(dist) || math.IsInf(dist, +1) {
		return m.calib[len(m.calib)-1].Accuracy
	}
	if dist <= m.calib[0].Distance {
		return m.calib[0].Accuracy
	}
	last := m.calib[len(m.calib)-1]
	if dist >= last.Distance {
		return last.Accuracy
	}
	// a.Distance < dist ≤ b.Distance, so the span is never zero
	i := sort.Search(len(m.calib), func(i int) bool { return m.calib[i].Distance >= dist })
	a, b := m.calib[i-1], m.calib[i]
	t := (dist - a.Distance) / (b.Distance - a.Distance)
	return a.Accuracy*(1-t) + b.Accuracy*t
}

// History returns the retained reports in chronological order. At most
// MaxHistory reports are kept.
func (m *Monitor) History() []Report {
	out := make([]Report, 0, len(m.history))
	out = append(out, m.history[m.start:]...)
	out = append(out, m.history[:m.start]...)
	return out
}

// Trend summarises the all-distance history — a monotone increase flags
// progressive degradation (drift/endurance) as opposed to a step change
// (hard fault event). With fewer than two retained reports the slope is 0.
func (m *Monitor) Trend() (slope float64, summary stats.Summary) {
	hist := m.History()
	xs := make([]float64, len(hist))
	ys := make([]float64, len(hist))
	for i, r := range hist {
		xs[i] = float64(r.Round)
		ys[i] = r.AllDist
	}
	slope, _, _ = stats.LinearFit(xs, ys)
	return slope, stats.Summarize(ys)
}

// PatternCount returns the number of concurrent-test patterns in use.
func (m *Monitor) PatternCount() int { return m.golden.Patterns.M() }

// Input returns the pattern batch a compliant accelerator readout must be
// produced from — the (M, dim) tensor Check feeds to its Infer.
func (m *Monitor) Input() *tensor.Tensor { return m.golden.Patterns.X }

// Classes returns the number of output classes a readout must carry.
func (m *Monitor) Classes() int { return m.golden.Classes }
