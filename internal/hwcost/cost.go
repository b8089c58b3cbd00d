// Hardware cost accounting. The paper's argument is economic — concurrent
// test patterns earn their keep because they are cheap relative to taking a
// device offline for functional test — so the simulator carries an explicit
// spend meter next to its fidelity models. Every tile-level operation
// (crossbar activation, DAC/ADC conversion, cell write, readout scan)
// charges an integer-denominated Cost into a Counter, attributed to one of
// three classes: Serving (revenue inference), Monitor (concurrent-test
// readouts) and Repair (scrubs, remaps, reprogramming, retraining).
//
// Design constraints, in order:
//
//   - Numerically invisible: counters are integers and never touch the
//     float64 data path, so enabling accounting cannot move a single output
//     bit. The golden bit-identity suites run with counters attached.
//   - Allocation-free and lock-free on the hot path: a charge is a handful
//     of atomic adds on pre-existing fields. Snapshots are atomic loads
//     concurrent with charging — no locks, no stop-the-world.
//   - One owner books the class: charge sites are classless. A charge lands
//     in the counter's unattributed cells, and whoever holds the device
//     exclusively (fleet.Station) settles them into one class as it releases
//     the device. No class is ever held as state while the device runs.
//
// Units are documented per field; energy uses fixed femtojoule-per-event
// coefficients in the range published for ISAAC-class designs, so EnergyFJ
// is a modeled (relative) figure, not a measured one. See DESIGN.md §14.
//
// This package is a dependency leaf (it imports only nn, tensor and the
// runtime): the simulated accelerator (internal/reram), the inference engine
// and the training engine all charge into it without importing each other,
// and every package above them names the ledger as hwcost.Cost /
// hwcost.Counter.
package hwcost

import (
	"math"
	"math/bits"
	"sync/atomic"

	"reramtest/internal/nn"
	"reramtest/internal/tensor"
)

// Modeled per-event energy coefficients in femtojoules. Fixed integers keep
// the accounting exact; absolute values are order-of-magnitude picks from the
// ISAAC/PRIME literature (cell read ~1 fJ, cell write ~8 fJ, 8-bit DAC ~4 fJ,
// 8-bit ADC ~16 fJ) — the gates only ever compare like against like.
const (
	EnergyCellReadFJ  = 1
	EnergyCellWriteFJ = 8
	EnergyDACFJ       = 4
	EnergyADCFJ       = 16
)

// Per-precision conversion energy. The sticker coefficients above price a
// conversion fed from a full-width float64 word — converter plus the digital
// staging that shuttles 8-byte operands to and from it. A plan compiled on
// the int8 tier hands the converters ready-made 8-bit codes: no mantissa
// rounding network, a quarter of the staging toggles, so its conversions are
// modeled at a quarter of the sticker energy. The float32 tier keeps the
// sticker conversion energy (the converter itself still quantizes an analog
// word; narrowing the float changes nothing at the DAC input latch) but
// halves the digital buffer traffic — see ElemBytes.
const (
	EnergyDACI8FJ = 1
	EnergyADCI8FJ = 4
)

// ConvEnergy returns the modeled per-conversion DAC and ADC energy for a
// plan precision.
func ConvEnergy(p tensor.Precision) (dacFJ, adcFJ uint64) {
	if p == tensor.I8 {
		return EnergyDACI8FJ, EnergyADCI8FJ
	}
	return EnergyDACFJ, EnergyADCFJ
}

// ElemBytes returns the digital buffer width of one element on a plan
// precision: 8 bytes for float64, 4 for float32, 1 for int8 codes.
func ElemBytes(p tensor.Precision) uint64 {
	switch p {
	case tensor.F32:
		return 4
	case tensor.I8:
		return 1
	default:
		return 8
	}
}

// Cost is one integer-denominated hardware spend total. The zero value is
// free. Costs add field-wise; no field ever carries IEEE arithmetic, so sums
// are exact and order-independent.
type Cost struct {
	// ComputeCycles counts crossbar activation cycles (one per tile pair per
	// row-tile pass — the differential arrays fire together).
	ComputeCycles uint64 `json:"computeCycles"`
	// DACConversions counts word-line input conversions.
	DACConversions uint64 `json:"dacConversions"`
	// ADCConversions counts bitline output conversions.
	ADCConversions uint64 `json:"adcConversions"`
	// CrossbarReads counts cell read activations (cells on driven word-lines).
	CrossbarReads uint64 `json:"crossbarReads"`
	// CrossbarWrites counts cell write pulses.
	CrossbarWrites uint64 `json:"crossbarWrites"`
	// EnergyFJ is the modeled energy in femtojoules (see the coefficients).
	EnergyFJ uint64 `json:"energyFJ"`
	// BufferBytes counts digital buffer traffic in bytes (inputs staged to
	// the DACs plus partial sums drained from the ADCs, 8 bytes per float).
	BufferBytes uint64 `json:"bufferBytes"`
}

// Add accumulates o into c field-wise, saturating each field at
// math.MaxUint64 instead of wrapping.
func (c *Cost) Add(o Cost) {
	c.ComputeCycles = satAdd(c.ComputeCycles, o.ComputeCycles)
	c.DACConversions = satAdd(c.DACConversions, o.DACConversions)
	c.ADCConversions = satAdd(c.ADCConversions, o.ADCConversions)
	c.CrossbarReads = satAdd(c.CrossbarReads, o.CrossbarReads)
	c.CrossbarWrites = satAdd(c.CrossbarWrites, o.CrossbarWrites)
	c.EnergyFJ = satAdd(c.EnergyFJ, o.EnergyFJ)
	c.BufferBytes = satAdd(c.BufferBytes, o.BufferBytes)
}

// Plus returns c + o (saturating, see Add).
func (c Cost) Plus(o Cost) Cost {
	c.Add(o)
	return c
}

// Minus returns c − o field-wise. It is the delta of two snapshots of one
// monotone counter; the caller guarantees o ≤ c field-wise.
func (c Cost) Minus(o Cost) Cost {
	c.ComputeCycles -= o.ComputeCycles
	c.DACConversions -= o.DACConversions
	c.ADCConversions -= o.ADCConversions
	c.CrossbarReads -= o.CrossbarReads
	c.CrossbarWrites -= o.CrossbarWrites
	c.EnergyFJ -= o.EnergyFJ
	c.BufferBytes -= o.BufferBytes
	return c
}

// Scale returns c with every field multiplied by n (n samples of a modeled
// per-sample cost), saturating at math.MaxUint64.
func (c Cost) Scale(n uint64) Cost {
	c.ComputeCycles = satMul(c.ComputeCycles, n)
	c.DACConversions = satMul(c.DACConversions, n)
	c.ADCConversions = satMul(c.ADCConversions, n)
	c.CrossbarReads = satMul(c.CrossbarReads, n)
	c.CrossbarWrites = satMul(c.CrossbarWrites, n)
	c.EnergyFJ = satMul(c.EnergyFJ, n)
	c.BufferBytes = satMul(c.BufferBytes, n)
	return c
}

func satAdd(a, b uint64) uint64 {
	if s, carry := bits.Add64(a, b, 0); carry == 0 {
		return s
	}
	return math.MaxUint64
}

func satMul(a, b uint64) uint64 {
	if hi, lo := bits.Mul64(a, b); hi == 0 {
		return lo
	}
	return math.MaxUint64
}

// IsZero reports whether every field is zero.
func (c Cost) IsZero() bool { return c == Cost{} }

// Class attributes a charge to the activity that caused it.
type Class int

// Attribution classes. The code holding a device exclusively names the
// class when it settles the device's charges (see Counter.Settle).
const (
	ClassServing Class = iota
	ClassMonitor
	ClassRepair
	numClasses
)

// CostBreakdown is a per-class snapshot of cumulative spend.
type CostBreakdown struct {
	Serving Cost `json:"serving"`
	Monitor Cost `json:"monitor"`
	Repair  Cost `json:"repair"`
}

// Total returns the class-summed spend.
func (b CostBreakdown) Total() Cost {
	return b.Serving.Plus(b.Monitor).Plus(b.Repair)
}

// ByClass returns one class's spend.
func (b CostBreakdown) ByClass(cl Class) Cost {
	switch cl {
	case ClassMonitor:
		return b.Monitor
	case ClassRepair:
		return b.Repair
	default:
		return b.Serving
	}
}

// costCells is one class's set of atomic accumulators, field-for-field with
// Cost.
type costCells struct {
	cycles, dac, adc, reads, writes, energy, buffer atomic.Uint64
}

func (s *costCells) add(c Cost) {
	if c.ComputeCycles != 0 {
		s.cycles.Add(c.ComputeCycles)
	}
	if c.DACConversions != 0 {
		s.dac.Add(c.DACConversions)
	}
	if c.ADCConversions != 0 {
		s.adc.Add(c.ADCConversions)
	}
	if c.CrossbarReads != 0 {
		s.reads.Add(c.CrossbarReads)
	}
	if c.CrossbarWrites != 0 {
		s.writes.Add(c.CrossbarWrites)
	}
	if c.EnergyFJ != 0 {
		s.energy.Add(c.EnergyFJ)
	}
	if c.BufferBytes != 0 {
		s.buffer.Add(c.BufferBytes)
	}
}

func (s *costCells) load() Cost {
	return Cost{
		ComputeCycles:  s.cycles.Load(),
		DACConversions: s.dac.Load(),
		ADCConversions: s.adc.Load(),
		CrossbarReads:  s.reads.Load(),
		CrossbarWrites: s.writes.Load(),
		EnergyFJ:       s.energy.Load(),
		BufferBytes:    s.buffer.Load(),
	}
}

// drain zeroes s and returns what it held.
func (s *costCells) drain() Cost {
	return Cost{
		ComputeCycles:  s.cycles.Swap(0),
		DACConversions: s.dac.Swap(0),
		ADCConversions: s.adc.Swap(0),
		CrossbarReads:  s.reads.Swap(0),
		CrossbarWrites: s.writes.Swap(0),
		EnergyFJ:       s.energy.Swap(0),
		BufferBytes:    s.buffer.Swap(0),
	}
}

func (s *costCells) store(c Cost) {
	s.cycles.Store(c.ComputeCycles)
	s.dac.Store(c.DACConversions)
	s.adc.Store(c.ADCConversions)
	s.reads.Store(c.CrossbarReads)
	s.writes.Store(c.CrossbarWrites)
	s.energy.Store(c.EnergyFJ)
	s.buffer.Store(c.BufferBytes)
}

// Counter is a lock-free per-device cost accumulator: one set of atomic
// cells per attribution class plus one set of unattributed (pending) cells.
// Charge adds to pending; the code that holds the device exclusively moves
// pending into a class with Settle as it releases the device, so a class is
// never held as state while the device runs. Charging and settling are a
// few atomic operations with zero allocations; Snapshot is atomic loads and
// may run concurrently with both from any goroutine. A nil *Counter is a
// valid no-op sink, so unmetered paths pay one branch.
//
// The cells are plain uint64s and wrap; the rollups built from snapshots
// (Cost.Add, Plus, Scale) saturate instead. EnergyFJ grows fastest: at
// 1.19 × 10¹¹ fJ/s (ConvNet-7 at 10 729 rows/s × 11 134 976 fJ/row, a whole
// 2-vCPU host's serving throughput on one device) a cell holds about 4.9
// years of continuous spend.
type Counter struct {
	pending costCells
	cells   [numClasses]costCells
}

// NewCounter returns a zeroed counter.
func NewCounter() *Counter { return &Counter{} }

// Charge accumulates c into the counter's pending cells, to be attributed by
// the next Settle. Safe on a nil receiver (no-op).
func (k *Counter) Charge(c Cost) {
	if k == nil {
		return
	}
	k.pending.add(c)
}

// Settle moves every pending charge into class cl and returns the amount
// moved. Only the code holding the device exclusively calls it, once as it
// releases the device. Safe on a nil receiver (returns zero).
func (k *Counter) Settle(cl Class) Cost {
	if k == nil {
		return Cost{}
	}
	c := k.pending.drain()
	k.cells[cl].add(c)
	return c
}

// Snapshot returns the cumulative per-class spend; unsettled charges are
// not in it, so every class is monotone. It is safe concurrent with charging
// and settling; each field is individually atomic (the snapshot is not a
// single linearization point across fields, which monotone accounting never
// needs). Safe on a nil receiver (returns zero).
func (k *Counter) Snapshot() CostBreakdown {
	if k == nil {
		return CostBreakdown{}
	}
	return CostBreakdown{
		Serving: k.cells[ClassServing].load(),
		Monitor: k.cells[ClassMonitor].load(),
		Repair:  k.cells[ClassRepair].load(),
	}
}

// Restore overwrites the counter with a snapshot (journal replay after a
// supervisor crash) and drops anything pending. Not intended to race with
// charging: restore happens before the device re-enters service.
func (k *Counter) Restore(b CostBreakdown) {
	if k == nil {
		return
	}
	k.pending.store(Cost{})
	k.cells[ClassServing].store(b.Serving)
	k.cells[ClassMonitor].store(b.Monitor)
	k.cells[ClassRepair].store(b.Repair)
}

// DefaultTileRows/Cols are the reference crossbar organisation (ISAAC and
// PRIME use 128×128): the engines price their sticker at it, and
// reram.DefaultConfig uses it.
const (
	DefaultTileRows = 128
	DefaultTileCols = 128
)

// MatVecCost returns the modeled per-pass cost of driving one (out × in)
// tiled linear layer on the analog path, excluding the data-dependent
// crossbar reads the crossbar arrays charge themselves (active word-lines ×
// columns). This is also the model the digital engines use for a per-sample
// charge when serving from the weight-level readout: there the read term is
// included at its dense upper bound because no DAC sparsity gate runs.
func MatVecCost(out, in, tileRows, tileCols int, denseReads bool) Cost {
	return MatVecCostPrec(out, in, tileRows, tileCols, denseReads, tensor.F64)
}

// MatVecCostPrec is MatVecCost priced at a plan precision: the event counts
// are identical (the tiling does not change with the numeric tier), but
// conversions charge the tier's energy coefficients and buffer traffic
// charges the tier's element width. MatVecCostPrec(..., tensor.F64) is
// exactly MatVecCost — the sticker model stays the committed baseline.
func MatVecCostPrec(out, in, tileRows, tileCols int, denseReads bool, p tensor.Precision) Cost {
	rowTiles := uint64((in + tileRows - 1) / tileRows)
	colTiles := uint64((out + tileCols - 1) / tileCols)
	c := Cost{
		// one activation cycle per tile pair per row-tile pass
		ComputeCycles: rowTiles * colTiles,
		// each input element converted once, reused across the tile row
		DACConversions: uint64(in),
		// each tile pair drains both polarities' bitlines per row-tile pass
		ADCConversions: 2 * rowTiles * colTiles * uint64(tileCols),
		// inputs staged in, outputs drained out, at the tier's element width
		BufferBytes: uint64(in+out) * ElemBytes(p),
	}
	if denseReads {
		c.CrossbarReads = 2 * uint64(in) * uint64(out)
	}
	dacFJ, adcFJ := ConvEnergy(p)
	c.EnergyFJ = c.DACConversions*dacFJ + c.ADCConversions*adcFJ +
		c.CrossbarReads*EnergyCellReadFJ
	return c
}

// ModelLayerCost is the per-sample forward hardware model of one compute
// layer, shared by the digital engines and priced at the reference tile
// (DefaultTileRows × DefaultTileCols): weight-bearing layers price as
// crossbar matvecs at the dense read upper bound (those engines serve from
// the weight-level readout, where no DAC sparsity gate runs), a convolution
// prices one matvec per output spatial position, and digital peripheral ops
// price as buffer traffic only.
func ModelLayerCost(l nn.Layer, inVol, outVol int) Cost {
	return ModelLayerCostPrec(l, inVol, outVol, tensor.F64)
}

// ModelLayerCostPrec is ModelLayerCost priced at a plan precision, so a
// shard that compiled its engines on a fast tier rolls cheaper conversions
// and narrower buffer traffic up through its /statsz cost breakdown instead
// of the f64 sticker numbers. ModelLayerCostPrec(..., tensor.F64) is exactly
// ModelLayerCost.
func ModelLayerCostPrec(l nn.Layer, inVol, outVol int, p tensor.Precision) Cost {
	switch ll := l.(type) {
	case *nn.Dense:
		return MatVecCostPrec(ll.Out(), ll.In(), DefaultTileRows, DefaultTileCols, true, p)
	case *nn.Conv2D:
		g := ll.Geom()
		spatial := g.OutH() * g.OutW()
		ckk := g.InC * g.KH * g.KW
		return MatVecCostPrec(ll.OutC(), ckk, DefaultTileRows, DefaultTileCols, true, p).Scale(uint64(spatial))
	default:
		return Cost{BufferBytes: uint64(inVol+outVol) * ElemBytes(p)}
	}
}

// ReadCost is the data-dependent crossbar charge: cells activated on driven
// word-lines plus their read energy.
func ReadCost(activeCells uint64) Cost {
	return Cost{CrossbarReads: activeCells, EnergyFJ: activeCells * EnergyCellReadFJ}
}

// WriteCost is the cell-write charge for programming/scrub/remap pulses.
func WriteCost(cells uint64) Cost {
	return Cost{CrossbarWrites: cells, EnergyFJ: cells * EnergyCellWriteFJ}
}
