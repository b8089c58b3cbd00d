// Fleet supervision: the deployment story the paper's cost argument scales
// to — a rack of ReRAM accelerators, each monitored by the concurrent-test
// runtime, under one supervisor that journals every durable state change,
// quarantines devices whose sensors go dark (circuit breaker, not retry
// burning), and routes inference traffic only to devices whose confirmed
// health allows it.
//
// The demo drives three simulated devices through field damage and shows the
// three fleet behaviours in order:
//
//	resistance drift on accel-01 → raw evidence escalates, debounce holds →
//	    confirmed, repaired and verified in one supervised round
//	a dead sensor on accel-02    → breaker trips after 2 faulty rounds →
//	    quarantined (zero traffic) → cooldown → half-open probe → recovered
//	a supervisor crash mid-run   → the process state is rebuilt byte-for-
//	    byte by replaying the write-ahead journal (with a deliberately
//	    corrupted tail that replay truncates rather than trusts)
//
//	go run ./examples/fleet
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"reramtest/internal/campaign"
	"reramtest/internal/fleet"
	"reramtest/internal/health"
	"reramtest/internal/journal"
	"reramtest/internal/monitor"
	"reramtest/internal/nn"
	"reramtest/internal/testgen"
)

// device adapts a campaign plant (simulated accelerator + repair mechanisms)
// to the fleet.Device contract. The plant is the hardware: it survives
// supervisor crashes.
type device struct {
	id    string
	plant *campaign.Plant
}

func (d device) ID() string                    { return d.id }
func (d device) Infer() monitor.Infer          { return d.plant.Infer() }
func (d device) Repairer() health.Repairer     { return d.plant }
func (d device) Reference() *nn.Network        { return d.plant.Reference() }
func (d device) Patterns() *testgen.PatternSet { return d.plant.Patterns() }

func main() {
	fcfg := fleet.DefaultConfig()
	fcfg.Health = campaign.DefaultConfig().Health // simulated time, debounced
	fcfg.Monitor = monitor.DefaultConfig()
	fcfg.BreakerOpenAfter = 2
	fcfg.BreakerCooldown = 3
	fcfg.RepairBudget = 8
	fcfg.MinServing = 1

	fmt.Println("commissioning a 3-device fleet (shared workload model, individual device physics)")
	plants := make([]*campaign.Plant, 3)
	devices := make([]fleet.Device, 3)
	for i := range plants {
		plants[i] = campaign.NewPlant(int64(100+i), campaign.DefaultPlantConfig())
		devices[i] = device{id: fmt.Sprintf("accel-%02d", i), plant: plants[i]}
	}

	// a directory, not a file: the store keeps its snapshot family beside
	// the WAL
	dir, err := os.MkdirTemp("", "fleet-demo-*")
	fatal(err)
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "fleet.wal")
	st, _, err := journal.OpenStore(path, journal.StoreConfig{})
	fatal(err)
	fmt.Printf("write-ahead journal: %s\n\n", path)

	sup, err := fleet.New(devices, fcfg, st)
	fatal(err)

	for round := 1; round <= 18; round++ {
		for _, p := range plants {
			p.SetRound(round)
		}
		switch round {
		case 4:
			fmt.Println("--- field event: 1100h of resistance drift lands on accel-01")
			plants[1].Accelerator().AdvanceTime(1100)
		case 9:
			fmt.Println("--- field event: accel-02's readout sensor dies for 4 rounds")
			plants[2].StartGlitch(campaign.GlitchPanic, 9, 4)
		}

		results, err := sup.Tick()
		fatal(err)
		for _, rr := range results {
			fmt.Printf("  %s\n", rr)
		}

		// place a burst of traffic and show where the router put it
		placed := map[string]int{}
		sheds := 0
		for q := 0; q < 8; q++ {
			if id, ok := sup.Dispatch(); ok {
				placed[id]++
				defer sup.Complete(id)
			} else {
				sheds++
			}
		}
		var parts []string
		for _, id := range sup.DeviceIDs() {
			parts = append(parts, fmt.Sprintf("%s:%d", id, placed[id]))
		}
		if sheds > 0 {
			parts = append(parts, fmt.Sprintf("shed:%d", sheds))
		}
		fmt.Printf("  traffic  %s\n\n", strings.Join(parts, "  "))

		if round == 12 {
			fmt.Println("--- supervisor process killed; corrupting the journal tail to simulate a torn write")
			fatal(st.Close())
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			fatal(err)
			_, err = f.Write([]byte{0xA7, 0x40, 0x00, 0x00, 0x00, 0xde, 0xad})
			fatal(err)
			fatal(f.Close())

			var rec journal.Recovered
			st, rec, err = journal.OpenStore(path, journal.StoreConfig{})
			fatal(err)
			fmt.Printf("--- replay: %d records recovered, %d corrupt tail bytes truncated\n", len(rec.Records), rec.Truncated)
			sup, err = fleet.Resume(devices, fcfg, st, rec)
			fatal(err)
			fmt.Printf("--- supervisor resumed at round %d with identical confirmed statuses and budgets\n\n", sup.Round())
		}
	}

	routed, sheds := sup.Router().Stats()
	fmt.Printf("final: serving=%v quarantined=%v routed=%d shed=%d\n",
		sup.Serving(), sup.Quarantined(), routed, sheds)
	for _, id := range sup.DeviceIDs() {
		snap := sup.Snapshot()[id]
		fmt.Printf("  %s: confirmed=%s budgetLeft=%d breaker=%s retired=%v\n",
			id, snap.State.Confirmed, snap.Budget, snap.Breaker.State, snap.Retired)
	}
	fatal(st.Close())
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleet demo:", err)
		os.Exit(1)
	}
}
