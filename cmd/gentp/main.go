// Command gentp generates the concurrent-test pattern sets (C-TP, O-TP and
// the AET baseline) for a chosen model, reports their quality statistics,
// caches them under testdata/patterns/, and optionally dumps PGM
// visualisations of the O-TP "white noise" patterns (the paper's Fig. 2).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"reramtest/internal/engine"
	"reramtest/internal/experiments"
	"reramtest/internal/faults"
	"reramtest/internal/monitor"
	"reramtest/internal/nn"
	"reramtest/internal/tensor"
)

func main() {
	model := flag.String("model", "lenet5", "model: lenet5 or convnet7")
	count := flag.Int("n", 50, "pattern count for C-TP/AET (O-TP always uses one per class)")
	visualize := flag.Bool("visualize", false, "write O-TP patterns as PGM images into testdata/otp-visualization/")
	all := flag.Bool("all", false, "pre-generate every pattern-set size the experiments use, for both models")
	flag.Parse()

	env, err := experiments.NewEnv(experiments.DefaultScale(), os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gentp:", err)
		os.Exit(1)
	}
	if *all {
		pregenerate(env)
		return
	}
	net, pool := env.ModelFor(*model)

	for _, method := range []string{"aet", "ctp", "otp"} {
		m := *count
		if method == "otp" {
			m = pool.Classes
		}
		p := env.Patterns(*model, method, m)
		golden := monitor.Capture(net, p)
		// report the sensitivity of the set against a representative fault
		fm := faults.MakeFaulty(net, faults.LogNormal{Sigma: 0.3}, 1)
		o := golden.Observe(fm)
		fmt.Printf("%-4s: %3d patterns, golden confidence flatness (mean std)=%.4f, "+
			"distance at σ=0.3: top=%.4f all=%.4f\n",
			method, p.M(), meanConfStd(net, p.X, pool.Classes), o.TopDist, o.AllDist)

		if *visualize && method == "otp" {
			dir := filepath.Join(experiments.RepoRoot(), "testdata", "otp-visualization")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "gentp:", err)
				os.Exit(1)
			}
			_, ds := env.ModelFor(*model)
			for i := 0; i < p.M(); i++ {
				path := filepath.Join(dir, fmt.Sprintf("%s-otp-%02d.pgm", *model, i))
				if err := p.WritePGM(path, i, ds.C, ds.H, ds.W); err != nil {
					fmt.Fprintln(os.Stderr, "gentp:", err)
					os.Exit(1)
				}
			}
			fmt.Printf("      wrote %d PGM visualisations to %s\n", p.M(), dir)
		}
	}
}

// pregenerate fills testdata/patterns/ with every set the experiments and
// benches consume, so `go test -bench` never pays generation cost.
func pregenerate(env *experiments.Env) {
	for _, model := range []string{"lenet5", "convnet7"} {
		for _, m := range []int{10, 25, 50, 100, 150, 200} {
			for _, method := range []string{"aet", "ctp"} {
				p := env.Patterns(model, method, m)
				fmt.Printf("cached %s-%s-%d (%d patterns)\n", model, method, m, p.M())
			}
		}
		n := env.OTPPatternCount(model)
		for _, m := range []int{n, 2 * n, 3 * n, 5 * n} {
			p := env.Patterns(model, "otp", m)
			fmt.Printf("cached %s-otp-%d (%d patterns)\n", model, m, p.M())
		}
		p := env.Patterns(model, "plain", env.Scale.Patterns)
		fmt.Printf("cached %s-plain-%d (%d patterns)\n", model, env.Scale.Patterns, p.M())
	}
}

// meanConfStd is the mean per-pattern standard deviation of the clean
// model's confidences — near 1/classes·0 for a well-converged O-TP set.
func meanConfStd(net *nn.Network, x *tensor.Tensor, classes int) float64 {
	probs := engine.MustCompile(net, engine.Options{}).Probs(x)
	pd := probs.Data()
	m := probs.Dim(0)
	sum := 0.0
	for i := 0; i < m; i++ {
		sum += tensor.FromSlice(pd[i*classes:(i+1)*classes], classes).Std()
	}
	return sum / float64(m)
}
