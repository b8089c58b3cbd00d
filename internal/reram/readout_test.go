package reram

import (
	"testing"

	"reramtest/internal/models"
	"reramtest/internal/rng"
	"reramtest/internal/tensor"
)

// TestMatVecIntoMatchesMatVec: a destination holding stale values must read
// back bit-identical to a fresh one, including the vmax==0 zero fill.
func TestMatVecIntoMatchesMatVec(t *testing.T) {
	r := rng.New(61)
	w := tensor.Randn(r, 0, 1, 20, 30)
	cfg := DefaultConfig()
	cfg.TileRows, cfg.TileCols = 16, 16
	tl := MapLinear(w, cfg, r.Split())
	x := make([]float64, 30)
	for i := range x {
		if i%3 != 0 {
			x[i] = float64(i) / 30
		}
	}
	want := make([]float64, 20)
	tl.MatVecInto(want, x)
	got := make([]float64, 20)
	for i := range got {
		got[i] = -5 // stale contents must be overwritten
	}
	tl.MatVecInto(got, x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d: stale destination %v, fresh %v", i, got[i], want[i])
		}
	}
	zero := make([]float64, 30)
	tl.MatVecInto(got, zero)
	for i, v := range got {
		if v != 0 {
			t.Fatalf("element %d not cleared for all-zero input: %v", i, v)
		}
	}
}

// TestEffectiveWeightsIntoMatches: same check for the weight readout.
func TestEffectiveWeightsIntoMatches(t *testing.T) {
	r := rng.New(62)
	w := tensor.Randn(r, 0, 1, 20, 30)
	cfg := DefaultConfig()
	cfg.TileRows, cfg.TileCols = 16, 16
	tl := MapLinear(w, cfg, r.Split())
	want := tensor.New(20, 30)
	tl.EffectiveWeightsInto(want)
	got := tensor.Full(-9, 20, 30)
	tl.EffectiveWeightsInto(got)
	if !got.Equal(want) {
		t.Fatal("a stale destination reads back different weights than a fresh one")
	}
}

// TestRefreshReadoutMatchesReadoutNetwork: the cached, in-place-refreshed
// readout must carry exactly the parameters of a fresh clone, stay
// pointer-stable across refreshes, and track hardware and digital-side
// changes.
func TestRefreshReadoutMatchesReadoutNetwork(t *testing.T) {
	net := models.MLP(rng.New(63), 12, []int{10}, 4)
	cfg := DefaultConfig()
	cfg.TileRows, cfg.TileCols = 16, 16
	a := NewAccelerator(net, cfg, 64)

	sameParams := func(t *testing.T) {
		t.Helper()
		fresh := a.ReadoutNetwork()
		cached := a.RefreshReadout()
		fp, cp := fresh.Params(), cached.Params()
		if len(fp) != len(cp) {
			t.Fatalf("param count %d vs %d", len(cp), len(fp))
		}
		for i := range fp {
			if !cp[i].Value.Equal(fp[i].Value) {
				t.Fatalf("param %q differs between RefreshReadout and ReadoutNetwork", fp[i].Name)
			}
		}
	}
	sameParams(t)
	first := a.RefreshReadout()

	// hardware state changes must show up in the refreshed view
	a.AdvanceTime(500)
	a.InjectStuckAt(0.01, 0.01)
	sameParams(t)
	if a.RefreshReadout() != first {
		t.Fatal("RefreshReadout is not pointer-stable")
	}

	// digital-side redeployment (new biases) must be re-synced too
	retrained := net.Clone()
	for _, p := range retrained.Params() {
		p.Value.Apply(func(v float64) float64 { return v * 0.9 })
	}
	a.ProgramNetwork(retrained)
	sameParams(t)
}

// TestInferWorkspaceReuse: repeated analog inferences through the reused
// workspaces must reproduce a fresh accelerator's output bit for bit, across
// changing batch sizes.
func TestInferWorkspaceReuse(t *testing.T) {
	build := func() *Accelerator {
		return NewAccelerator(models.LeNet5(rng.New(65)), idealConfig(), 66)
	}
	warm := build()
	for _, n := range []int{2, 1, 3, 2} {
		x := tensor.RandUniform(rng.New(int64(70+n)), 0, 1, n, 784)
		// a fresh accelerator per batch has never reused a workspace
		want := build().Infer(x).Clone()
		got := warm.Infer(x)
		if !got.Equal(want) {
			t.Fatalf("n=%d: reused-workspace inference diverged", n)
		}
	}
}
