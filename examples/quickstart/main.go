// Quickstart: train a small classifier, derive O-TP concurrent-test
// patterns from it, inject ReRAM-style programming errors, and watch the
// patterns expose the fault while ordinary test images barely react.
//
// Everything here is self-contained and runs in a few seconds:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"os"

	"reramtest/internal/dataset"
	"reramtest/internal/engine"
	"reramtest/internal/faults"
	"reramtest/internal/models"
	"reramtest/internal/monitor"
	"reramtest/internal/nn"
	"reramtest/internal/rng"
	"reramtest/internal/testgen"
)

func main() {
	// 1. train a small model on the synthetic digit workload
	train := dataset.SynthDigits(1, dataset.DefaultDigitsConfig(2000))
	test := dataset.SynthDigits(2, dataset.DefaultDigitsConfig(500))
	net := models.MLP(rng.New(7), train.SampleDim(), []int{128, 64}, train.Classes)
	cfg := models.DefaultTrainConfig()
	cfg.Epochs = 4
	cfg.LR = 0.02
	cfg.Log = os.Stdout
	if err := models.Train(context.Background(), net, train, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
	fmt.Printf("clean model accuracy: %.1f%%\n\n", 100*accuracy(net, test))

	// 2. generate O-TP patterns: the clean model must be maximally confused
	//    by them, a reference fault model maximally confident
	ref := faults.MakeFaulty(net, faults.LogNormal{Sigma: 0.3}, 99)
	patterns, res := testgen.GenerateOTP(net, ref, train.Classes, testgen.DefaultOTPConfig(), rng.New(11))
	fmt.Printf("generated %d O-TP patterns in %d iterations (converged=%v)\n",
		patterns.M(), res.Iters, res.Converged)

	// 3. capture golden outputs, then check accelerators of varying health
	golden := monitor.Capture(net, patterns)
	plainGolden := monitor.Capture(net, testgen.SelectPlain(test, patterns.M()))
	for _, sigma := range []float64{0.05, 0.15, 0.3, 0.5} {
		faulty := faults.MakeFaulty(net, faults.LogNormal{Sigma: sigma}, int64(100+sigma*1000))
		otp := golden.Observe(faulty)
		plain := plainGolden.Observe(faulty)
		fmt.Printf("σ=%.2f: O-TP distance=%.4f (flagged=%v) | plain-image distance=%.4f (flagged=%v) | true acc=%.1f%%\n",
			sigma, otp.AllDist, otp.Detect(monitor.SDCA3),
			plain.AllDist, plain.Detect(monitor.SDCA3),
			100*accuracy(faulty, test))
	}
}

// accuracy is net's top-1 accuracy on d, through a compiled inference plan.
func accuracy(net *nn.Network, d *dataset.Dataset) float64 {
	return engine.MustCompile(net, engine.Options{}).Accuracy(d.X, d.Y, 64)
}
