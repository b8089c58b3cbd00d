// Repair ladder: the pluggable strategy suite from DESIGN.md §12, run
// against one simulated accelerator that is damaged three different ways.
// Each confirmed fault walks the escalation ladder cheapest-first —
// soft-error scrub (cost 1) → spare-line remap (cost 2) → fault-aware
// retrain (cost 4) — skipping rungs whose applicability predicate rejects
// the diagnosis: pure drift is scrubbed in place for one unit, a stuck-at
// burst skips the scrub entirely, and a rung that fails its concurrent-test
// verification escalates to the next costlier one instead of declaring
// victory open-loop. Every unit of cost is charged against the device's
// lifetime repair budget, whether or not the rung worked. The same ladder,
// driven fleet-wide against a retrain-only control arm, is what `go run
// ./cmd/monitor -soak lifetime` gates on.
//
//	go run ./examples/repair_ladder
package main

import (
	"context"
	"fmt"
	"os"

	"reramtest/internal/campaign"
	"reramtest/internal/health"
	"reramtest/internal/monitor"
)

func main() {
	// a plant bundles the trained workload model, the simulated crossbar
	// accelerator and the repair actuators; the Ladder repair mode exposes
	// the strategy suite, Harden bakes drop-connect stuck-at tolerance in at
	// commissioning (the ladder's zero-cost rung — it runs before the
	// device ever ships)
	pcfg := campaign.DefaultPlantConfig()
	pcfg.Repair = campaign.Ladder
	pcfg.Harden = true
	pcfg.SpareRows = 2
	plant := campaign.NewPlant(7, pcfg)
	fmt.Printf("commissioned: drop-connect hardened, %d spare rows/tile, fidelity %.3f\n",
		pcfg.SpareRows, plant.Fidelity())

	mon, err := monitor.New(plant.Reference(), plant.Patterns(), nil, monitor.DefaultConfig())
	if err != nil {
		fmt.Fprintln(os.Stderr, "repair_ladder:", err)
		os.Exit(1)
	}
	hcfg := health.DefaultConfig()
	hcfg.EscalateAfter = 1 // snappy demo: one damaged round confirms
	rt, err := health.New(mon, hcfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repair_ladder:", err)
		os.Exit(1)
	}

	budget := 16
	fmt.Printf("lifetime repair budget: %d units (scrub=1 remap=2 retrain=4)\n", budget)

	scenarios := []struct {
		name   string
		damage func()
	}{
		{"resistance drift (900 simulated hours)", func() {
			plant.Accelerator().AdvanceTime(900)
		}},
		{"stuck-at burst (0.4% SA0, 0.2% SA1)", func() {
			plant.Accelerator().InjectStuckAt(0.004, 0.002)
		}},
		{"severe mixed damage (drift + soft errors + stuck-ats)", func() {
			plant.Accelerator().AdvanceTime(1200)
			plant.Accelerator().InjectSoftErrors(0.05)
			plant.Accelerator().InjectStuckAt(0.03, 0.015)
		}},
	}

	for i, sc := range scenarios {
		fmt.Printf("\n== scenario %d: %s ==\n", i+1, sc.name)
		sc.damage()
		d := plant.Diagnose(rt.Confirmed())
		fmt.Printf("diagnosis: %d drifted cells, %d uncompensated stuck cells, %d spare lines free\n",
			d.Drifted, d.Stuck, d.Spares)

		// one supervised round: confirm the damage, walk the ladder
		// cheapest-first, verify each rung with fresh test rounds
		ep := rt.Supervise(context.Background(), plant.Infer(), plant, budget)
		if !ep.Repaired() {
			fmt.Printf("fidelity %.3f — below the repair threshold, no rung pulled\n", plant.Fidelity())
			continue
		}
		for _, att := range ep.Attempts {
			verdict := "failed verification → escalate"
			if att.Verified {
				verdict = "verified"
			}
			if att.ApplyErr != nil {
				verdict = "apply error: " + att.ApplyErr.Error()
			}
			fmt.Printf("  rung %-7s cost %d  %s\n", att.Strategy, att.Cost, verdict)
		}
		budget -= ep.CostSpent
		fmt.Printf("episode: recovered=%v cost=%d, budget left %d, fidelity %.3f, confirmed %s\n",
			ep.Recovered, ep.CostSpent, budget, plant.Fidelity(), rt.Confirmed())
		if ep.GaveUp {
			fmt.Printf("gave up: %s (retire advised: %v)\n", ep.Recommendation, ep.RetireAdvised)
		}
	}

	if n := plant.UntypedRepairErrors(); n != 0 {
		fmt.Printf("\nWARNING: %d untyped repair errors escaped the strategy contract\n", n)
		os.Exit(1)
	}
	fmt.Printf("\nall repairs drawn from the typed strategy suite; %d budget units unspent\n", budget)
}
