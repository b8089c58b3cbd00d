// Hardware cost accounting, re-exported. The accounting core lives in the
// dependency-leaf package internal/hwcost so that the training engine (which
// packages above the model layer import) can charge into the same counters
// without creating an import cycle through this package. Device-facing code
// keeps writing reram.Cost / reram.Counter: every name below is a type alias
// or thin wrapper, so the types are identical across package boundaries.
//
// See hwcost's package comment for the design constraints (numerically
// invisible, allocation-free hot path, one owner books the class) and
// DESIGN.md §14 for units and charge points.
package reram

import (
	"reramtest/internal/hwcost"
	"reramtest/internal/nn"
	"reramtest/internal/tensor"
)

// Modeled per-event energy coefficients in femtojoules (see hwcost).
const (
	EnergyCellReadFJ  = hwcost.EnergyCellReadFJ
	EnergyCellWriteFJ = hwcost.EnergyCellWriteFJ
	EnergyDACFJ       = hwcost.EnergyDACFJ
	EnergyADCFJ       = hwcost.EnergyADCFJ
)

// Cost, CostBreakdown, Class and Counter are aliases of the hwcost
// types — identical types, not conversions, so values flow freely between
// packages that import either name.
type (
	Cost          = hwcost.Cost
	CostBreakdown = hwcost.CostBreakdown
	Class         = hwcost.Class
	Counter       = hwcost.Counter
)

// Attribution classes (see hwcost.Class).
const (
	ClassServing = hwcost.ClassServing
	ClassMonitor = hwcost.ClassMonitor
	ClassRepair  = hwcost.ClassRepair
)

// NewCounter returns a zeroed counter.
func NewCounter() *Counter { return hwcost.NewCounter() }

// MatVecCost is hwcost.MatVecCost with the tile organisation drawn from a
// simulator Config.
func MatVecCost(out, in int, cfg Config, denseReads bool) Cost {
	return hwcost.MatVecCost(out, in, cfg.TileRows, cfg.TileCols, denseReads)
}

// ModelLayerCost is hwcost.ModelLayerCost with the tile organisation drawn
// from a simulator Config.
func ModelLayerCost(l nn.Layer, inVol, outVol int, cfg Config) Cost {
	return hwcost.ModelLayerCost(l, inVol, outVol, cfg.TileRows, cfg.TileCols)
}

// ModelLayerCostPrec is hwcost.ModelLayerCostPrec with the tile organisation
// drawn from a simulator Config: the per-layer cost model priced at the
// numeric tier a plan actually compiled (int8 conversions are cheaper than
// the f64 sticker model, narrower elements mean less buffer traffic).
func ModelLayerCostPrec(l nn.Layer, inVol, outVol int, cfg Config, p tensor.Precision) Cost {
	return hwcost.ModelLayerCostPrec(l, inVol, outVol, cfg.TileRows, cfg.TileCols, p)
}

// readCost/writeCost are the tile-level charge helpers the crossbar and
// mapper use (see hwcost.ReadCost / hwcost.WriteCost).
func readCost(activeCells uint64) Cost { return hwcost.ReadCost(activeCells) }
func writeCost(cells uint64) Cost      { return hwcost.WriteCost(cells) }
