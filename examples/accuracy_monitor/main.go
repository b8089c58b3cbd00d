// Accuracy monitoring: reproduces the paper's Fig.-8 story on a live
// degrading model — the confidence distance measured by a handful of O-TP
// patterns tracks the (expensive-to-measure) true accuracy, so the monitor
// can report an accuracy estimate from 10 inferences instead of 10,000.
//
//	go run ./examples/accuracy_monitor
package main

import (
	"fmt"
	"os"

	"reramtest/internal/engine"
	"reramtest/internal/experiments"
	"reramtest/internal/faults"
	"reramtest/internal/monitor"
)

func main() {
	env, err := experiments.NewEnv(experiments.DefaultScale(), os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "accuracy_monitor:", err)
		os.Exit(1)
	}
	net, test := env.ModelFor("lenet5")

	// calibrate once offline: distance → accuracy over the σ sweep
	fig8 := env.Fig8()
	dist, acc := fig8.CalibrationCurve("otp")
	calib := make([]monitor.CalibPoint, len(dist))
	for i := range dist {
		calib[i] = monitor.CalibPoint{Distance: dist[i], Accuracy: acc[i]}
	}
	mon := monitor.New(net, env.PatternsDefault("lenet5", "otp"), calib)
	fmt.Printf("monitor calibrated with %d points, armed with %d patterns\n\n", len(calib), mon.PatternCount())

	eval := test.Head(500)
	fmt.Printf("%-8s %-12s %-12s %-12s %s\n", "σ", "est. acc", "true acc", "error", "status")
	for _, sigma := range []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5} {
		faulty := faults.MakeFaulty(net, faults.LogNormal{Sigma: sigma}, int64(7000+sigma*100))
		rep := mon.Check(monitor.NetworkInfer(faulty))
		trueAcc := engine.MustCompile(faulty, engine.Options{}).Accuracy(eval.X, eval.Y, 64)
		fmt.Printf("%-8.2f %-12s %-12s %-12s %s\n", sigma,
			fmt.Sprintf("%.1f%%", 100*rep.EstAccuracy),
			fmt.Sprintf("%.1f%%", 100*trueAcc),
			fmt.Sprintf("%+.1fpp", 100*(rep.EstAccuracy-trueAcc)),
			rep.Status)
	}
}
