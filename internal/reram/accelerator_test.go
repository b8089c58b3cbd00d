package reram

import (
	"testing"

	"reramtest/internal/models"
	"reramtest/internal/rng"
)

func idealConfig() Config {
	return Config{TileRows: 64, TileCols: 64, DACBits: 0, ADCBits: 0, Device: idealParams()}
}

func TestAcceleratorCloneSemantics(t *testing.T) {
	net := models.MLP(rng.New(9), 8, nil, 3)
	a := NewAccelerator(net, idealConfig(), 11)
	// mutating the source network afterwards must not affect the accelerator
	clear(net.Params()[0].Value.Data())
	got := a.ReadoutNetwork().Params()[0].Value
	if got.Min() == 0 && got.Max() == 0 {
		t.Fatal("accelerator shares weight storage with the source network")
	}
}

func TestAcceleratorTileCount(t *testing.T) {
	net := models.MLP(rng.New(14), 100, []int{80}, 10)
	cfg := idealConfig() // 64×64 tiles
	a := NewAccelerator(net, cfg, 14)
	// fc1: 100×80 → 2×2 tiles ×2 polarity = 8; fc2: 80×10 → 2×1 ×2 = 4
	if got := a.TileCount(); got != 12 {
		t.Fatalf("TileCount=%d, want 12", got)
	}
}

func TestProgramNetworkStuckCellsPersist(t *testing.T) {
	net := models.MLP(rng.New(23), 10, []int{8}, 3)
	a := NewAccelerator(net, idealConfig(), 24)
	a.InjectStuckAt(0.1, 0.1)
	before := a.ReadoutNetwork()
	a.ProgramNetwork(net) // rewrite with the same weights
	after := a.ReadoutNetwork()
	// stuck positions must read identically before and after the write
	for i, p := range before.Params() {
		bd, ad := p.Value.Data(), after.Params()[i].Value.Data()
		clean := net.Params()[i].Value.Data()
		for j := range bd {
			stuckish := bd[j] != clean[j]
			if stuckish && bd[j] != ad[j] {
				t.Fatalf("stuck cell %s[%d] changed across redeploy: %v -> %v", p.Name, j, bd[j], ad[j])
			}
		}
	}
}
