package reram

import (
	"fmt"
	"math"

	"reramtest/internal/hwcost"
	"reramtest/internal/rng"
	"reramtest/internal/tensor"
)

// Config describes the accelerator organisation: array geometry, converter
// resolutions and device parameters.
type Config struct {
	// TileRows/TileCols is the crossbar array size (ISAAC and PRIME use
	// 128×128).
	TileRows, TileCols int
	// DACBits quantizes word-line input voltages over [0, 1]; 0 = ideal.
	DACBits int
	// ADCBits quantizes per-bitline output currents; 0 = ideal.
	ADCBits int
	// Device holds the per-cell physical parameters.
	Device DeviceParams
}

// DefaultConfig returns the reference 128×128 organisation
// (hwcost.DefaultTileRows × hwcost.DefaultTileCols) with 8-bit DACs/ADCs and
// default device physics.
func DefaultConfig() Config {
	return Config{TileRows: hwcost.DefaultTileRows, TileCols: hwcost.DefaultTileCols, DACBits: 8, ADCBits: 8, Device: DefaultDeviceParams()}
}

// TiledLinear maps one (Out, In) weight matrix onto a grid of differential
// crossbar pairs. Rows of each crossbar are inputs (word-lines), columns are
// outputs (bit-lines). Weights are sign-split: w = (G⁺−G⁻) · scale with the
// positive part programmed on the G⁺ array and the magnitude of the negative
// part on G⁻, both offset from GOff.
type TiledLinear struct {
	In, Out  int
	cfg      Config
	scale    float64 // weight units per siemens of differential conductance
	tiles    [][]tilePair
	rowTiles int
	colTiles int
	dac      Quantizer
	counter  *hwcost.Counter // nil = unmetered; shared with every tile's crossbars
	passCost hwcost.Cost     // data-independent per-MatVec charge, precomputed
	// MatVecInto staging, allocated once at map time. These make TiledLinear
	// a single-goroutine object, like the nn layers it stands in for.
	vin, ip, in []float64
}

// SetCounter attaches a cost counter to the layer and all of its crossbars;
// nil detaches. Conversion, cycle and buffer charges land at this layer
// (which owns the DACs/ADCs and staging buffers); read/write charges land in
// the crossbars they touch.
func (t *TiledLinear) SetCounter(c *hwcost.Counter) {
	t.counter = c
	for _, row := range t.tiles {
		for i := range row {
			row[i].pos.SetCounter(c)
			row[i].neg.SetCounter(c)
		}
	}
}

type tilePair struct {
	pos, neg *Crossbar
	// adcPos/adcNeg quantize each array's bitline current over its own
	// full-scale range, calibrated from the programmed conductances.
	adcPos, adcNeg Quantizer
}

// MapLinear programs weight matrix w (Out, In) into a new tiled crossbar
// group. wmax scaling is per-matrix: the largest |w| maps to the full
// conductance window.
func MapLinear(w *tensor.Tensor, cfg Config, r *rng.RNG) *TiledLinear {
	if w.Rank() != 2 {
		panic(fmt.Sprintf("reram: MapLinear needs a rank-2 weight matrix, got %v", w.Shape()))
	}
	out, in := w.Dim(0), w.Dim(1)
	t := &TiledLinear{
		In: in, Out: out, cfg: cfg,
		rowTiles: (in + cfg.TileRows - 1) / cfg.TileRows,
		colTiles: (out + cfg.TileCols - 1) / cfg.TileCols,
		dac:      Quantizer{Bits: cfg.DACBits, Lo: 0, Hi: 1},
		passCost: hwcost.MatVecCost(out, in, cfg.TileRows, cfg.TileCols, false),
		vin:      make([]float64, cfg.TileRows),
		ip:       make([]float64, cfg.TileCols),
		in:       make([]float64, cfg.TileCols),
	}
	t.tiles = make([][]tilePair, t.rowTiles)
	for rt := 0; rt < t.rowTiles; rt++ {
		t.tiles[rt] = make([]tilePair, t.colTiles)
		for ct := 0; ct < t.colTiles; ct++ {
			t.tiles[rt][ct] = tilePair{
				pos: NewCrossbar(cfg.TileRows, cfg.TileCols, cfg.Device, r.Split()),
				neg: NewCrossbar(cfg.TileRows, cfg.TileCols, cfg.Device, r.Split()),
			}
		}
	}
	t.ProgramWeights(w)
	return t
}

// ProgramWeights writes a new (Out, In) weight matrix into the EXISTING
// arrays — the re-deployment path after cloud-edge retraining. Stuck cells
// keep ignoring writes (which is exactly why fault-aware retraining froze
// them); every healthy cell is reprogrammed, so accumulated drift and soft
// errors are cleared as a side effect. ADCs are recalibrated to the new
// conductance ranges.
func (t *TiledLinear) ProgramWeights(w *tensor.Tensor) {
	if w.Rank() != 2 || w.Dim(0) != t.Out || w.Dim(1) != t.In {
		panic(fmt.Sprintf("reram: ProgramWeights got %v, want (%d, %d)", w.Shape(), t.Out, t.In))
	}
	cfg := t.cfg
	wmax := 0.0
	for _, v := range w.Data() {
		if a := math.Abs(v); a > wmax {
			wmax = a
		}
	}
	if wmax == 0 {
		wmax = 1 // all-zero layer: arbitrary scale, everything programs to GOff
	}
	gWindow := cfg.Device.GOn - cfg.Device.GOff
	t.scale = wmax / gWindow
	wd := w.Data()
	for rt := 0; rt < t.rowTiles; rt++ {
		for ct := 0; ct < t.colTiles; ct++ {
			gp := tensor.Full(cfg.Device.GOff, cfg.TileRows, cfg.TileCols)
			gn := tensor.Full(cfg.Device.GOff, cfg.TileRows, cfg.TileCols)
			gpd, gnd := gp.Data(), gn.Data()
			for i := 0; i < cfg.TileRows; i++ {
				gi := rt*cfg.TileRows + i // global input index
				if gi >= t.In {
					break
				}
				for j := 0; j < cfg.TileCols; j++ {
					gj := ct*cfg.TileCols + j // global output index
					if gj >= t.Out {
						break
					}
					v := wd[gj*t.In+gi]
					g := cfg.Device.GOff + math.Abs(v)/wmax*gWindow
					if v >= 0 {
						gpd[i*cfg.TileCols+j] = g
					} else {
						gnd[i*cfg.TileCols+j] = g
					}
				}
			}
			tp := &t.tiles[rt][ct]
			tp.pos.Program(gp)
			tp.neg.Program(gn)
			tp.adcPos = calibrateADC(tp.pos, cfg.ADCBits)
			tp.adcNeg = calibrateADC(tp.neg, cfg.ADCBits)
		}
	}
}

// calibrateADC sizes an ADC to the worst-case bitline current of the array:
// every word-line at full scale through the largest programmed conductance
// column sum.
func calibrateADC(x *Crossbar, bits int) Quantizer {
	if bits <= 0 {
		return Quantizer{}
	}
	maxCol := 0.0
	for j := 0; j < x.Cols; j++ {
		sum := 0.0
		for i := 0; i < x.Rows; i++ {
			sum += x.Conductance(i, j)
		}
		if sum > maxCol {
			maxCol = sum
		}
	}
	return Quantizer{Bits: bits, Lo: 0, Hi: maxCol}
}

// MatVec executes y = W·x on the analog path: DAC-quantized inputs drive the
// word-lines of each tile pair, per-bitline currents are ADC-quantized,
// differential pairs are subtracted and partial sums accumulated digitally.
// x must have length In; the result has length Out (bias-free — biases stay
// in digital logic).
//
// Word-line voltages are unsigned, so inputs are dynamically range-scaled:
// x is divided by max(x) before the DAC and the result rescaled digitally,
// the standard input-encoding trick in ISAAC-class designs. Negative inputs
// are clamped to zero — valid for this repository's ReLU pipelines, where
// every crossbar-facing activation is non-negative.
func (t *TiledLinear) MatVec(x []float64) []float64 {
	out := make([]float64, t.Out)
	t.MatVecInto(out, x)
	return out
}

// MatVecInto is MatVec writing into a caller-owned slice of length Out —
// the allocation-free path the accelerator's batched inference uses. It
// reuses the tile staging buffers allocated at map time, so it must not be
// called from more than one goroutine at a time.
func (t *TiledLinear) MatVecInto(out, x []float64) {
	if len(x) != t.In {
		panic(fmt.Sprintf("reram: MatVec input length %d, want %d", len(x), t.In))
	}
	if len(out) != t.Out {
		panic(fmt.Sprintf("reram: MatVec output length %d, want %d", len(out), t.Out))
	}
	for i := range out {
		out[i] = 0
	}
	vmax := 0.0
	for _, v := range x {
		if v > vmax {
			vmax = v
		}
	}
	if vmax == 0 {
		return // all word-lines idle: no conversions, no charge
	}
	// data-independent pass charge (conversions, cycles, buffer traffic);
	// the crossbars below charge their own data-dependent reads
	t.counter.Charge(t.passCost)
	vin, ip, in := t.vin, t.ip, t.in
	for rt := 0; rt < t.rowTiles; rt++ {
		// load, range-normalise and DAC-quantize this tile row's inputs
		for i := range vin {
			gi := rt*t.cfg.TileRows + i
			if gi < t.In && x[gi] > 0 {
				vin[i] = t.dac.Quantize(x[gi] / vmax)
			} else {
				vin[i] = 0
			}
		}
		for ct := 0; ct < t.colTiles; ct++ {
			tp := t.tiles[rt][ct]
			tp.pos.MatVec(vin, ip)
			tp.neg.MatVec(vin, in)
			tp.adcPos.QuantizeSlice(ip)
			tp.adcNeg.QuantizeSlice(in)
			for j := 0; j < t.cfg.TileCols; j++ {
				gj := ct*t.cfg.TileCols + j
				if gj >= t.Out {
					break
				}
				out[gj] += (ip[j] - in[j]) * t.scale * vmax
			}
		}
	}
}

// EffectiveWeights reads the weight matrix back from the arrays, reflecting
// programming variation, stuck-at faults, soft errors and drift — the
// weight-level view of the hardware's current state.
func (t *TiledLinear) EffectiveWeights() *tensor.Tensor {
	w := tensor.New(t.Out, t.In)
	t.EffectiveWeightsInto(w)
	return w
}

// EffectiveWeightsInto is EffectiveWeights writing into a caller-owned
// (Out, In) tensor — every element is overwritten, so the buffer can be
// reused across readouts without clearing.
func (t *TiledLinear) EffectiveWeightsInto(w *tensor.Tensor) {
	tensor.AssertDims("reram.EffectiveWeightsInto", w, t.Out, t.In)
	// a full differential scan: both polarities of every mapped cell read
	// once, the weight view drained to the digital buffer
	cells := 2 * uint64(t.In) * uint64(t.Out)
	t.counter.Charge(hwcost.ReadCost(cells).Plus(hwcost.Cost{BufferBytes: uint64(t.In) * uint64(t.Out) * 8}))
	wd := w.Data()
	for rt := 0; rt < t.rowTiles; rt++ {
		for ct := 0; ct < t.colTiles; ct++ {
			tp := t.tiles[rt][ct]
			for i := 0; i < t.cfg.TileRows; i++ {
				gi := rt*t.cfg.TileRows + i
				if gi >= t.In {
					break
				}
				for j := 0; j < t.cfg.TileCols; j++ {
					gj := ct*t.cfg.TileCols + j
					if gj >= t.Out {
						break
					}
					diff := tp.pos.Conductance(i, j) - tp.neg.Conductance(i, j)
					wd[gj*t.In+gi] = diff * t.scale
				}
			}
		}
	}
}

// AdvanceTime ages every tile.
func (t *TiledLinear) AdvanceTime(hours float64) {
	for _, row := range t.tiles {
		for _, tp := range row {
			tp.pos.AdvanceTime(hours)
			tp.neg.AdvanceTime(hours)
		}
	}
}

// InjectStuckAt adds field stuck-at faults to every tile.
func (t *TiledLinear) InjectStuckAt(p0, p1 float64) {
	for _, row := range t.tiles {
		for _, tp := range row {
			tp.pos.InjectStuckAt(p0, p1)
			tp.neg.InjectStuckAt(p0, p1)
		}
	}
}

// InjectSoftErrors disturbs a random fraction p of healthy cells in every
// tile (an instantaneous soft-error shower; cleared by Reprogram).
func (t *TiledLinear) InjectSoftErrors(p float64) {
	for _, row := range t.tiles {
		for _, tp := range row {
			tp.pos.InjectSoftErrors(p)
			tp.neg.InjectSoftErrors(p)
		}
	}
}

// Reprogram rewrites every tile to its target conductances (repair action).
func (t *TiledLinear) Reprogram() {
	for _, row := range t.tiles {
		for _, tp := range row {
			tp.pos.Reprogram()
			tp.neg.Reprogram()
		}
	}
}

// TileCount returns the number of crossbar arrays used (both polarities).
func (t *TiledLinear) TileCount() int { return 2 * t.rowTiles * t.colTiles }

// commissionCost is the write cost of programming every cell in every array
// once — what a full in-field (re)deployment of this layer's weights costs.
func (t *TiledLinear) commissionCost() hwcost.Cost {
	var cells uint64
	for _, row := range t.tiles {
		for _, tp := range row {
			cells += uint64(tp.pos.Rows)*uint64(tp.pos.Cols) + uint64(tp.neg.Rows)*uint64(tp.neg.Cols)
		}
	}
	return hwcost.WriteCost(cells)
}
