package main

import (
	"fmt"
	"math"
	"slices"

	"reramtest/internal/engine"
	"reramtest/internal/faults"
	"reramtest/internal/reram"
)

const (
	detectMaxTicks  = 10 // a faulted device must leave the serving set within this many ticks
	detectFollowups = 32 // requests that must then all succeed on the survivors
)

// gate is the correctness check run before timing and after the last
// segment: n answers bit-identical to a reference engine, then the accounting
// identities.
func (s *stack) gate(n int) error {
	ref, err := engine.Compile(s.ref.Clone(), engineOptions())
	if err != nil {
		return err
	}
	for k := 0; k < n; k++ {
		i := k * len(s.reqs) / n
		a, err := s.ask(i)
		if err != nil {
			return fmt.Errorf("gate: %w", err)
		}
		want := ref.Probs(s.tensorOf(i))
		if len(a.Probs) != want.Dim(0) {
			return fmt.Errorf("gate: request %d answered %d rows, want %d", i, len(a.Probs), want.Dim(0))
		}
		width := want.Dim(1)
		for r, row := range a.Probs {
			if len(row) != width {
				return fmt.Errorf("gate: request %d row %d has %d classes, want %d", i, r, len(row), width)
			}
			for c, v := range row {
				if w := want.Data()[r*width+c]; math.Float64bits(v) != math.Float64bits(w) {
					return fmt.Errorf("gate: request %d probs[%d][%d] = %v, reference engine says %v", i, r, c, v, w)
				}
			}
		}
	}
	return s.identities(ref.PlanCost())
}

// identities checks the tier's books against themselves and against what the
// clients saw over the stack's whole life.
func (s *stack) identities(perRow reram.Cost) error {
	st := s.front.Stats()
	s.mu.Lock()
	seen := s.ledger
	s.mu.Unlock()
	switch {
	case st.Received != st.Invalid+st.QuotaRejected+st.ClosedRejected+st.Admitted:
		return fmt.Errorf("identity: received %d != invalid+quota+closed+admitted (%+v)", st.Received, st)
	case st.Admitted != st.Terminal():
		return fmt.Errorf("identity: admitted %d != terminal %d", st.Admitted, st.Terminal())
	case st.Internal != 0:
		return fmt.Errorf("identity: %d untyped errors escaped the tier", st.Internal)
	case st.Completed != seen.ok:
		return fmt.Errorf("identity: tier completed %d, clients saw %d ok", st.Completed, seen.ok)
	}
	tier := s.front.CostStats().Fleet
	if seen.cost != tier {
		return fmt.Errorf("identity: clients summed cost %+v, tier ledger says %+v", seen.cost, tier)
	}
	want := perRow.Scale(seen.rows)
	if tier == want {
		return nil
	}
	// Known defect this benchmark found: under ticks the books can run short.
	// health.Runtime switches the device counter to the monitor class outside
	// the Station lock, so a tick that starts while a request is inside
	// ServeInfer has that request's rows charged to the monitor class and the
	// response reports zero cost. The shortfall must still be whole rows, and
	// a workload without ticks has no excuse.
	short := want.Minus(tier)
	rows := short.EnergyFJ / perRow.EnergyFJ
	if s.w.tick == 0 || tier.EnergyFJ > want.EnergyFJ || short != perRow.Scale(rows) {
		return fmt.Errorf("identity: tier ledger %+v != %d rows × plan cost = %+v", tier, seen.rows, want)
	}
	s.misbooked = rows
	return nil
}

// detect is the fault-detection check: corrupt one device of the busiest
// shard, tick until the monitor takes it out of service, then make sure
// traffic still flows and avoids it. It returns the ticks detection took.
func (s *stack) detect() (int, error) {
	var busiest string
	var served uint64
	for _, sh := range s.front.Status() {
		if busiest == "" || sh.Stats.Served > served {
			busiest, served = sh.Name, sh.Stats.Served
		}
	}
	serving := func() []string {
		for _, sh := range s.front.Status() {
			if sh.Name == busiest {
				return sh.Serving
			}
		}
		return nil
	}
	victim := serving()[0]
	d := s.devices[victim]
	// no traffic and no tick is running, so the engine is ours to rebind
	if err := d.eng.Rebind(faults.MakeFaulty(d.net, faults.LogNormal{Sigma: 1.0}, modelSeed)); err != nil {
		return 0, err
	}
	ticks := 0
	for slices.Contains(serving(), victim) {
		if ticks == detectMaxTicks {
			return ticks, fmt.Errorf("detect: %s still serving after %d ticks", victim, ticks)
		}
		s.front.Tick()
		ticks++
	}
	for k := 0; k < detectFollowups; k++ {
		a, err := s.ask(k % len(s.reqs))
		if err != nil {
			return ticks, fmt.Errorf("detect: after quarantine: %w", err)
		}
		if a.Device == victim {
			return ticks, fmt.Errorf("detect: quarantined %s served request %d", victim, k)
		}
	}
	return ticks, s.identities(d.eng.PlanCost())
}
