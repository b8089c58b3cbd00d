// Command train builds the two evaluation models (LeNet-5 on SynthDigits,
// ConvNet-7 on SynthObjects), training them if no cached weights exist under
// testdata/weights/ and reporting their test accuracy.
package main

import (
	"flag"
	"fmt"
	"os"

	"reramtest/internal/engine"
	"reramtest/internal/experiments"
)

func main() {
	full := flag.Bool("full", false, "use the paper-scale experiment configuration")
	flag.Parse()
	scale := experiments.DefaultScale()
	if *full {
		scale = experiments.FullScale()
	}
	env, err := experiments.NewEnv(scale, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "train:", err)
		os.Exit(1)
	}
	fmt.Println(env.LeNet.Summary())
	fmt.Printf("LeNet-5 test accuracy: %.2f%%\n\n", 100*engine.MustCompile(env.LeNet, engine.Options{}).Accuracy(env.DigitsTest.X, env.DigitsTest.Y, 64))
	fmt.Println(env.ConvNet.Summary())
	fmt.Printf("ConvNet-7 test accuracy: %.2f%%\n", 100*engine.MustCompile(env.ConvNet, engine.Options{}).Accuracy(env.ObjectsTest.X, env.ObjectsTest.Y, 64))
}
