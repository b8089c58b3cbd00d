// Crossbar simulation: maps a trained model onto simulated ReRAM crossbar
// tiles and shows (1) that the analog path with 8-bit DAC/ADC reproduces the
// digital accuracy, and (2) how programming variation, drift and stuck-at
// faults at the *device* level surface as the accuracy loss the paper's
// weight-level error models abstract.
//
//	go run ./examples/crossbar_sim
package main

import (
	"fmt"
	"os"

	"reramtest/internal/dataset"
	"reramtest/internal/engine"
	"reramtest/internal/experiments"
	"reramtest/internal/reram"
	"reramtest/internal/tensor"
)

func main() {
	env, err := experiments.NewEnv(experiments.DefaultScale(), os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crossbar_sim:", err)
		os.Exit(1)
	}
	net, test := env.ModelFor("lenet5")
	eval := test.Head(200)
	digital := engine.MustCompile(net, engine.Options{}).Accuracy(eval.X, eval.Y, 64)
	fmt.Printf("digital reference accuracy: %.1f%%\n\n", 100*digital)

	// 1. ideal devices, real converters: the analog path itself
	cfg := reram.DefaultConfig()
	accel := reram.NewAccelerator(net, cfg, 1)
	fmt.Printf("mapped onto %d crossbars (%dx%d, %d-bit DAC, %d-bit ADC)\n",
		accel.TileCount(), cfg.TileRows, cfg.TileCols, cfg.DACBits, cfg.ADCBits)
	small := test.Head(50)
	analogAcc := accuracyVia(accel.Infer, small)
	fmt.Printf("analog-path accuracy (50 images, ideal cells): %.1f%%\n\n", 100*analogAcc)

	// 2. device-level degradation: programming noise, aging, stuck-ats
	fmt.Printf("%-40s %s\n", "device condition", "accuracy (readout network)")
	for _, c := range []struct {
		name  string
		build func() *reram.Accelerator
	}{
		{"ideal cells", func() *reram.Accelerator {
			return reram.NewAccelerator(net, cfg, 2)
		}},
		{"programming σ=0.1", func() *reram.Accelerator {
			c := cfg
			c.Device.ProgramSigma = 0.1
			return reram.NewAccelerator(net, c, 3)
		}},
		{"programming σ=0.1 + 2000h drift", func() *reram.Accelerator {
			c := cfg
			c.Device.ProgramSigma = 0.1
			a := reram.NewAccelerator(net, c, 4)
			a.AdvanceTime(2000)
			return a
		}},
		{"1% SA0 + 0.5% SA1 stuck cells", func() *reram.Accelerator {
			a := reram.NewAccelerator(net, cfg, 5)
			a.InjectStuckAt(0.01, 0.005)
			return a
		}},
	} {
		a := c.build()
		acc := engine.MustCompile(a.ReadoutNetwork(), engine.Options{}).Accuracy(eval.X, eval.Y, 64)
		fmt.Printf("%-40s %.1f%%\n", c.name, 100*acc)
	}
}

// accuracyVia measures top-1 accuracy through an arbitrary logits function,
// one sample at a time (the analog path is unbatched inside anyway).
func accuracyVia(infer func(*tensor.Tensor) *tensor.Tensor, d *dataset.Dataset) float64 {
	correct := 0
	for i := 0; i < d.N(); i++ {
		logits := infer(d.Input(i))
		if logits.ArgMax() == d.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(d.N())
}
