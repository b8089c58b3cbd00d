// Package reram simulates the ReRAM (memristor) crossbar accelerator the
// paper's concurrent test monitors. It models the device physics the paper's
// weight-level error abstractions come from:
//
//   - conductance-coded weights on differential cell pairs (G⁺, G⁻),
//   - lognormal programming variation at write time,
//   - stuck-at-0 (HRS) / stuck-at-1 (LRS) hard faults,
//   - resistance drift and random soft errors accumulating with time,
//   - DAC input quantization and per-bitline ADC output quantization,
//   - tile-partitioned matrix-vector execution for matrices larger than one
//     crossbar array.
//
// Two execution paths are provided. Infer runs true analog-path simulation
// (DAC → crossbar currents → ADC per tile) and is used by the runtime
// monitor demo. ReadoutNetwork exports the *effective* weights (after
// variation, faults and drift) back into an nn.Network clone, which is
// mathematically identical except for DAC/ADC quantization and is what the
// statistical sweeps use — exactly the weight-level abstraction of the
// paper's §IV error models.
package reram

import (
	"fmt"
	"math"

	"reramtest/internal/hwcost"
	"reramtest/internal/rng"
	"reramtest/internal/tensor"
)

// CellState marks a device as healthy or stuck.
type CellState uint8

// Cell fault states.
const (
	CellOK  CellState = iota
	CellSA0           // stuck at HRS: conductance pinned to GOff
	CellSA1           // stuck at LRS: conductance pinned to GOn
)

// DeviceParams gathers the per-cell physical parameters.
type DeviceParams struct {
	// GOn is the low-resistance-state conductance in siemens.
	GOn float64
	// GOff is the high-resistance-state conductance in siemens.
	GOff float64
	// ProgramSigma is the lognormal σ of write-time conductance variation
	// (the paper's programming error source).
	ProgramSigma float64
	// SA0Rate and SA1Rate are fabrication-time stuck-at probabilities.
	SA0Rate, SA1Rate float64
	// DriftRate is the per-hour decay rate of (G−GOff) toward HRS.
	DriftRate float64
	// DriftJitter is the lognormal σ of drift accumulated per sqrt-hour.
	DriftJitter float64
	// SoftErrorRate is the per-cell per-hour probability of a disturb event
	// that reprograms the cell to a random conductance.
	SoftErrorRate float64
	// SpareRows is the number of redundant word-lines fabricated per array
	// for stuck-at remapping (the paper's hardware-redundancy repair tier).
	// Zero (the default) models an array without spares; the RemapRow repair
	// then always reports failure.
	SpareRows int
}

// DefaultDeviceParams returns TiO2-memristor-like values: 100 µS LRS, 1 µS
// HRS, and variation magnitudes in the range reported by the papers the
// target work cites.
func DefaultDeviceParams() DeviceParams {
	return DeviceParams{
		GOn: 100e-6, GOff: 1e-6,
		ProgramSigma: 0.0,
		SA0Rate:      0, SA1Rate: 0,
		DriftRate: 0.002, DriftJitter: 0.01,
		SoftErrorRate: 0,
	}
}

// Crossbar is one R×C array of ReRAM cells holding target and actual
// conductances.
type Crossbar struct {
	Rows, Cols int
	dev        DeviceParams
	target     []float64 // intended conductances
	actual     []float64 // programmed conductances incl. variation/drift
	state      []CellState
	spares     int             // spare word-lines still available for RemapRow
	counter    *hwcost.Counter // nil = unmetered; see hwcost
	r          *rng.RNG
}

// SetCounter attaches a cost counter; nil detaches. Reads, writes and their
// energy charge here; conversions and cycles charge at the TiledLinear layer
// that owns the DACs/ADCs.
func (x *Crossbar) SetCounter(c *hwcost.Counter) { x.counter = c }

// NewCrossbar allocates an array with every cell at HRS. Fabrication
// stuck-at faults are drawn immediately from dev's rates.
func NewCrossbar(rows, cols int, dev DeviceParams, r *rng.RNG) *Crossbar {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("reram: crossbar dims must be positive, got %dx%d", rows, cols))
	}
	if dev.GOn <= dev.GOff {
		panic(fmt.Sprintf("reram: GOn (%g) must exceed GOff (%g)", dev.GOn, dev.GOff))
	}
	x := &Crossbar{Rows: rows, Cols: cols, dev: dev,
		target: make([]float64, rows*cols),
		actual: make([]float64, rows*cols),
		state:  make([]CellState, rows*cols),
		spares: dev.SpareRows,
		r:      r,
	}
	for i := range x.target {
		x.target[i] = dev.GOff
		x.actual[i] = dev.GOff
		u := r.Float64()
		switch {
		case u < dev.SA0Rate:
			x.state[i] = CellSA0
		case u < dev.SA0Rate+dev.SA1Rate:
			x.state[i] = CellSA1
		}
	}
	return x
}

// Program writes the (Rows, Cols) target conductance matrix into the array,
// clamping to [GOff, GOn] and applying lognormal programming variation per
// cell. Stuck cells ignore the write.
func (x *Crossbar) Program(g *tensor.Tensor) {
	if g.Len() != x.Rows*x.Cols {
		panic(fmt.Sprintf("reram: Program got %v, want %dx%d", g.Shape(), x.Rows, x.Cols))
	}
	gd := g.Data()
	for i, v := range gd {
		if v < x.dev.GOff {
			v = x.dev.GOff
		} else if v > x.dev.GOn {
			v = x.dev.GOn
		}
		x.target[i] = v
		a := v
		if x.dev.ProgramSigma > 0 {
			a = clampG(v*x.r.LogNormal(0, x.dev.ProgramSigma), x.dev)
		}
		x.actual[i] = a
	}
	x.counter.Charge(hwcost.WriteCost(uint64(x.Rows) * uint64(x.Cols)))
}

// Conductance returns the effective conductance of cell (i, j), accounting
// for stuck-at state.
func (x *Crossbar) Conductance(i, j int) float64 {
	idx := i*x.Cols + j
	switch x.state[idx] {
	case CellSA0:
		return x.dev.GOff
	case CellSA1:
		return x.dev.GOn
	default:
		return x.actual[idx]
	}
}

// MatVec drives voltages v (length Rows, word-lines) and accumulates bitline
// currents into out (length Cols): out[j] = Σ_i v[i]·G(i,j). This is the
// analog dot-product the crossbar computes in one step.
func (x *Crossbar) MatVec(v, out []float64) {
	if len(v) != x.Rows || len(out) != x.Cols {
		panic(fmt.Sprintf("reram: MatVec dims v=%d out=%d, want %d/%d", len(v), len(out), x.Rows, x.Cols))
	}
	for j := range out {
		out[j] = 0
	}
	activeRows := 0
	for i, vi := range v {
		if vi == 0 {
			continue
		}
		activeRows++
		row := x.actual[i*x.Cols : (i+1)*x.Cols]
		st := x.state[i*x.Cols : (i+1)*x.Cols]
		for j, g := range row {
			switch st[j] {
			case CellSA0:
				g = x.dev.GOff
			case CellSA1:
				g = x.dev.GOn
			}
			out[j] += vi * g
		}
	}
	x.counter.Charge(hwcost.ReadCost(uint64(activeRows) * uint64(x.Cols)))
}

// AdvanceTime ages the array by hours: conductances drift toward HRS with
// stochastic jitter, and soft-error disturb events reprogram random cells.
func (x *Crossbar) AdvanceTime(hours float64) {
	if hours <= 0 {
		return
	}
	decay := math.Exp(-x.dev.DriftRate * hours)
	sigma := x.dev.DriftJitter * math.Sqrt(hours)
	pSoft := 1 - math.Exp(-x.dev.SoftErrorRate*hours)
	for i := range x.actual {
		if x.state[i] != CellOK {
			continue
		}
		if pSoft > 0 && x.r.Bernoulli(pSoft) {
			x.actual[i] = x.r.Uniform(x.dev.GOff, x.dev.GOn)
			continue
		}
		delta := x.actual[i] - x.dev.GOff
		if delta <= 0 {
			continue
		}
		f := decay
		if sigma > 0 {
			f *= x.r.LogNormal(0, sigma)
		}
		x.actual[i] = clampG(x.dev.GOff+delta*f, x.dev)
	}
}

// InjectSoftErrors disturbs a random fraction p of healthy cells to an
// arbitrary conductance — a burst ("shower") of disturb events from a
// voltage transient or particle strike. Unlike the per-hour SoftErrorRate
// accumulation in AdvanceTime, this models an instantaneous event; the
// damage persists until the array is reprogrammed.
func (x *Crossbar) InjectSoftErrors(p float64) {
	for i := range x.actual {
		if x.state[i] != CellOK {
			continue
		}
		if x.r.Bernoulli(p) {
			x.actual[i] = x.r.Uniform(x.dev.GOff, x.dev.GOn)
		}
	}
}

// InjectStuckAt marks additional random cells stuck (endurance failures
// appearing in the field).
func (x *Crossbar) InjectStuckAt(p0, p1 float64) {
	for i := range x.state {
		if x.state[i] != CellOK {
			continue
		}
		u := x.r.Float64()
		switch {
		case u < p0:
			x.state[i] = CellSA0
		case u < p0+p1:
			x.state[i] = CellSA1
		}
	}
}

// Reprogram rewrites the stored target conductances (a repair action after
// drift), drawing fresh programming variation.
func (x *Crossbar) Reprogram() {
	t := tensor.FromSlice(append([]float64(nil), x.target...), x.Rows, x.Cols)
	x.Program(t)
}

func clampG(g float64, dev DeviceParams) float64 {
	if g < dev.GOff {
		return dev.GOff
	}
	if g > dev.GOn {
		return dev.GOn
	}
	return g
}
