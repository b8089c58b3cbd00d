// Fault detection: the paper's core comparison on live models. All three
// pattern families (AET baseline, C-TP, O-TP) score the same set of fault
// models across the programming-error sweep, reporting per-σ detection
// rates under the SDC-A3% criterion — the regime where the paper shows AET
// collapsing while C-TP/O-TP stay at 100%.
//
//	go run ./examples/fault_detection
package main

import (
	"fmt"
	"os"

	"reramtest/internal/experiments"
	"reramtest/internal/faults"
	"reramtest/internal/monitor"
)

func main() {
	env, err := experiments.NewEnv(experiments.DefaultScale(), os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fault_detection:", err)
		os.Exit(1)
	}
	net, _ := env.ModelFor("lenet5")

	goldens := map[string]*monitor.Golden{}
	for _, m := range experiments.Methods {
		p := env.PatternsDefault("lenet5", m)
		goldens[m] = monitor.Capture(net, p)
		fmt.Printf("%-4s: %d patterns armed\n", m, p.M())
	}
	fmt.Println()

	const perSigma = 10
	fmt.Printf("%-6s %-10s %-10s %-10s  (SDC-A3%% detection rate over %d fault models)\n",
		"σ", "AET", "C-TP", "O-TP", perSigma)
	for _, sigma := range experiments.LeNetSigmas {
		fms := faults.MakeFaultySet(net, faults.LogNormal{Sigma: sigma}, perSigma, int64(sigma*10000))
		fmt.Printf("%-6.2f", sigma)
		for _, m := range experiments.Methods {
			rates := goldens[m].DetectionRate(fms, []monitor.Criterion{monitor.SDCA3})
			fmt.Printf(" %-10s", fmt.Sprintf("%.0f%%", 100*rates[monitor.SDCA3]))
		}
		fmt.Println()
	}
}
