// Self-healing: the complete closed loop the paper motivates, run through
// the hardened runtime — a simulated ReRAM accelerator degrades in the
// field, health.Runtime debounces the concurrent-test evidence (one noisy
// round never flaps the confirmed status), rejects poisoned readouts (a NaN
// confidence is retried and, failing that, reported as a sensor fault — never
// as Healthy), and drives the supervised detect→repair→verify loop:
//
//	drift          → confirmed DEGRADED → crossbar reprogramming → verified
//	stuck-at burst → confirmed IMPAIRED → stuck-cell diagnosis +
//	                                      fault-aware retraining
//
// Each repair is verified with fresh concurrent-test rounds before the
// runtime declares recovery; a verification failure escalates to the next
// costlier mechanism (reprogram → retrain → replace) instead of declaring
// victory open-loop.
//
//	go run ./examples/self_healing
package main

import (
	"context"
	"fmt"
	"math"
	"os"

	"reramtest/internal/engine"
	"reramtest/internal/experiments"
	"reramtest/internal/health"
	"reramtest/internal/monitor"
	"reramtest/internal/nn"
	"reramtest/internal/repair"
	"reramtest/internal/reram"
	"reramtest/internal/tensor"
)

// device bundles the accelerator with the repair mechanisms the supervised
// loop may invoke. It implements health.Repairer: its ladder is the fixed
// reprogram → retrain → replace escalation over Apply.
type device struct {
	accel *reram.Accelerator
	ref   *nn.Network
	env   *experiments.Env
	rcfg  reram.Config
	eng   *engine.Engine // batched plan over the cached readout network
}

// engine refreshes the accelerator's cached readout and returns the batched
// inference plan bound to it, rebinding after a module replacement swaps the
// accelerator.
func (d *device) engine() *engine.Engine {
	ro := d.accel.RefreshReadout()
	if d.eng == nil || d.eng.Rebind(ro) != nil {
		d.eng = engine.MustCompile(ro, engine.Options{})
	}
	return d.eng
}

func (d *device) infer(x *tensor.Tensor) *tensor.Tensor {
	return d.engine().Probs(x)
}

func (d *device) accuracy() float64 {
	eval := d.env.DigitsTest.Head(300)
	return d.engine().Accuracy(eval.X, eval.Y, 64)
}

func (d *device) Strategies() []repair.Strategy { return repair.Escalation(d.Apply) }

func (d *device) Diagnose(confirmed monitor.Status) repair.Diagnosis {
	return repair.Diagnosis{Status: confirmed}
}

// Apply executes one planned repair action against the hardware.
func (d *device) Apply(action repair.Action) (*nn.Network, error) {
	switch action {
	case repair.Reprogram:
		fmt.Println("  repair: reprogramming all crossbars")
		d.accel.Reprogram()
		return nil, nil
	case repair.Retrain:
		// cloud-edge path: diagnose stuck cells (leaves the arrays
		// reprogrammed), fine-tune around the frozen faults, redeploy, and
		// hand back the new reference for monitor recommissioning
		stuck, err := repair.DiagnoseStuck(d.accel, d.ref, 0.3)
		if err != nil {
			return nil, err
		}
		fmt.Printf("  repair: retraining around %d stuck cells\n", stuck.Count())
		faulty := d.accel.ReadoutNetwork()
		cfg := repair.DefaultRetrainConfig()
		cfg.Epochs = 2
		repair.RetrainAround(faulty, stuck, d.env.DigitsTrain.Head(2000), nil, cfg)
		d.accel.ProgramNetwork(faulty)
		d.ref = faulty
		return faulty, nil
	case repair.Replace:
		fmt.Println("  repair: replacing the module with a fresh part")
		d.accel = reram.NewAccelerator(d.env.LeNet, d.rcfg, 12)
		d.ref = d.env.LeNet
		return d.env.LeNet, nil
	default:
		return nil, nil
	}
}

func main() {
	env, err := experiments.NewEnv(experiments.DefaultScale(), os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "self_healing:", err)
		os.Exit(1)
	}

	rcfg := reram.DefaultConfig()
	rcfg.Device.ProgramSigma = 0.04
	rcfg.Device.DriftRate = 0.0006
	dev := &device{accel: reram.NewAccelerator(env.LeNet, rcfg, 11), ref: env.LeNet, env: env, rcfg: rcfg}
	patterns := env.PatternsDefault("lenet5", "ctp")

	hcfg := health.DefaultConfig()
	hcfg.EscalateAfter = 2 // confirm damage on 2 agreeing rounds
	rt, err := health.New(monitor.MustNew(env.LeNet, patterns, nil, monitor.DefaultConfig()), hcfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "self_healing:", err)
		os.Exit(1)
	}

	// the field scenario: a transient readout glitch (absorbed by the
	// debounce), slow drift (reprogrammed), a poisoned NaN readout (rejected,
	// never Healthy), then an endurance stuck-at burst (retrained around)
	events := []struct {
		name   string
		rounds int // monitoring rounds after the event lands
		apply  func() monitor.Infer
	}{
		{"commissioning", 2, func() monitor.Infer { return dev.infer }},
		{"transient readout glitch (1 round)", 1, func() monitor.Infer {
			return func(x *tensor.Tensor) *tensor.Tensor {
				probs := dev.infer(x)
				uniform := 1.0 / float64(probs.Dim(1))
				probs.Apply(func(v float64) float64 { return 0.6*v + 0.4*uniform })
				return probs
			}
		}},
		{"glitch cleared", 1, func() monitor.Infer { return dev.infer }},
		{"250h of drift", 3, func() monitor.Infer {
			dev.accel.AdvanceTime(250)
			return dev.infer
		}},
		{"poisoned sensor: NaN confidences (1 round)", 1, func() monitor.Infer {
			return func(x *tensor.Tensor) *tensor.Tensor {
				probs := dev.infer(x)
				probs.Data()[0] = math.NaN()
				return probs
			}
		}},
		{"sensor recovered", 1, func() monitor.Infer { return dev.infer }},
		{"endurance burst: 1.5% SA0 + 0.75% SA1", 3, func() monitor.Infer {
			dev.accel.InjectStuckAt(0.015, 0.0075)
			return dev.infer
		}},
	}

	for _, ev := range events {
		fmt.Printf("\n== %s ==\n", ev.name)
		infer := ev.apply()
		for i := 0; i < ev.rounds; i++ {
			ep := rt.Supervise(context.Background(), infer, dev, hcfg.MaxRepairAttempts)
			fmt.Printf("%s\n", ep.Trigger)
			if ep.Repaired() {
				fmt.Printf("  %s\n", ep)
				fmt.Printf("  true accuracy after repair: %.1f%%\n", 100*dev.accuracy())
			}
		}
	}

	fmt.Printf("\nsummary: %d rounds, %d confirmed status changes, %d readouts rejected\n",
		len(rt.History()), rt.StatusFlips(), func() int { r, _ := rt.RejectedReadouts(); return r }())
}
