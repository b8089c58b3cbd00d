// The five ledger names the benchmark harness still spells through this
// package. They are aliases of the hwcost types, not conversions, and they go
// with ROADMAP item 1(a), the next benchmark change. Every other caller,
// reram's own code included, names the ledger through hwcost.

package reram

import "reramtest/internal/hwcost"

type (
	Cost    = hwcost.Cost
	Class   = hwcost.Class
	Counter = hwcost.Counter
)

const (
	ClassServing = hwcost.ClassServing
	ClassMonitor = hwcost.ClassMonitor
)
