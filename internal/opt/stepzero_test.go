package opt

import (
	"testing"

	"reramtest/internal/nn"
	"reramtest/internal/rng"
	"reramtest/internal/tensor"
)

// randParams builds a small deterministic parameter set with nonzero values.
func randParams(seed int64) []*nn.Param {
	r := rng.New(seed)
	var ps []*nn.Param
	for i, n := range []int{17, 5, 9} {
		ps = append(ps, &nn.Param{
			Name:  string(rune('a' + i)),
			Value: tensor.RandUniform(r, -1, 1, n),
			Grad:  tensor.New(n),
		})
	}
	return ps
}

func fillGrads(ps []*nn.Param, seed int64) {
	r := rng.New(seed)
	for _, p := range ps {
		g := p.Grad.Data()
		for j := range g {
			g[j] = r.Float64()*2 - 1
		}
	}
}

// TestStepAndZeroMatchesStep: for every SGD variant, K steps of
// StepAndZero must leave bit-identical weights to K steps of Step followed by
// manual gradient zeroing, and must leave every gradient exactly zero.
func TestStepAndZeroMatchesStep(t *testing.T) {
	builders := []struct {
		name  string
		build func(ps []*nn.Param) *SGD
	}{
		{"sgd-vanilla", func(ps []*nn.Param) *SGD { return NewSGD(ps, 0.1, 0, 0) }},
		{"sgd-momentum-decay", func(ps []*nn.Param) *SGD { return NewSGD(ps, 0.05, 0.9, 1e-4) }},
	}
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			want := randParams(1)
			got := randParams(1)
			wOpt := b.build(want)
			gOpt := b.build(got)
			for step := 0; step < 6; step++ {
				fillGrads(want, int64(10+step))
				fillGrads(got, int64(10+step))
				wOpt.Step()
				for _, p := range want {
					g := p.Grad.Data()
					for j := range g {
						g[j] = 0
					}
				}
				gOpt.StepAndZero()
			}
			for i := range want {
				if !got[i].Value.Equal(want[i].Value) {
					t.Errorf("param %s: StepAndZero weights diverge from Step", want[i].Name)
				}
				for j, g := range got[i].Grad.Data() {
					if g != 0 {
						t.Fatalf("param %s grad[%d] = %v after StepAndZero, want 0", got[i].Name, j, g)
					}
				}
			}
		})
	}
}

// TestStepAndZeroAllocFree: the fused step is the hot path of every training
// loop and must not touch the heap.
func TestStepAndZeroAllocFree(t *testing.T) {
	for _, b := range []struct {
		name  string
		build func(ps []*nn.Param) *SGD
	}{
		{"sgd-momentum", func(ps []*nn.Param) *SGD { return NewSGD(ps, 0.05, 0.9, 1e-4) }},
	} {
		t.Run(b.name, func(t *testing.T) {
			ps := randParams(2)
			o := b.build(ps)
			fillGrads(ps, 3)
			o.StepAndZero()
			if a := testing.AllocsPerRun(20, o.StepAndZero); a != 0 {
				t.Errorf("StepAndZero allocates %.1f objects/op, want 0", a)
			}
		})
	}
}
