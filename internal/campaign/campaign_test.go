package campaign

import (
	"testing"

	"reramtest/internal/monitor"
	"reramtest/internal/rng"
)

// TestSoakGate is the PR's acceptance gate: across ≥20 seeded campaigns the
// hardened runtime must miss zero Critical-severity events, never flap the
// confirmed status on transient self-clearing glitches (while the raw
// un-debounced evidence demonstrably deviates in at least one window),
// recover ≥80% of repairable events to within RecoveryBand, and
// survive every poisoned readout without ever reporting it Healthy.
func TestSoakGate(t *testing.T) {
	if testing.Short() {
		t.Skip("soak gate needs the full campaign count")
	}
	cfg := DefaultConfig()
	results, err := RunMany(1000, 20, cfg)
	if err != nil {
		t.Fatalf("RunMany: %v", err)
	}
	sc := Score(results)
	t.Logf("\n%s", sc)
	if fails := sc.Failures(); len(fails) != 0 {
		t.Fatal(fails)
	}
	if sc.TransientWindows == 0 {
		t.Fatal("no transient windows scored — flap criterion untested")
	}
	if sc.Persistent == 0 || sc.CriticalEvents == 0 {
		t.Fatalf("timelines too tame: persistent=%d critical=%d", sc.Persistent, sc.CriticalEvents)
	}
	if sc.RejectedReadouts == 0 || sc.RecoveredPanics == 0 {
		t.Fatalf("poisoned-readout paths unexercised: rejected=%d panics=%d",
			sc.RejectedReadouts, sc.RecoveredPanics)
	}
}

// TestPoisonedRoundsNeverHealthy asserts the ISSUE's survival criterion
// directly on the traces: every sensor-fault round must report a non-Healthy
// status.
func TestPoisonedRoundsNeverHealthy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rounds = 24
	results, err := RunMany(4000, 4, cfg)
	if err != nil {
		t.Fatalf("RunMany: %v", err)
	}
	faultRounds := 0
	for _, res := range results {
		for _, rec := range res.Rounds {
			if !rec.SensorFault {
				continue
			}
			faultRounds++
			if rec.Raw == monitor.Healthy {
				t.Fatalf("seed %d round %d: sensor fault reported Healthy", res.Seed, rec.Round)
			}
		}
	}
	if faultRounds == 0 {
		t.Fatal("no sensor-fault rounds in 4 campaigns — poison glitches not firing")
	}
}

// TestRunDeterministic: same seed, same config → identical trace.
func TestRunDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rounds = 20
	a, err := Run(99, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(99, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rounds) != len(b.Rounds) || len(a.Events) != len(b.Events) {
		t.Fatalf("trace shapes differ: %d/%d rounds, %d/%d events",
			len(a.Rounds), len(b.Rounds), len(a.Events), len(b.Events))
	}
	for i := range a.Rounds {
		if a.Rounds[i] != b.Rounds[i] {
			t.Fatalf("round %d differs:\n%+v\n%+v", i, a.Rounds[i], b.Rounds[i])
		}
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs:\n%+v\n%+v", i, a.Events[i], b.Events[i])
		}
	}
}

// TestRandomTimelineShape sanity-checks the schedule generator.
func TestRandomTimelineShape(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		evs := RandomTimeline(rng.New(seed), 40)
		var noise, poison, persistent int
		last := 0
		for _, e := range evs {
			if e.Round <= last {
				t.Fatalf("seed %d: events out of order: %v", seed, evs)
			}
			last = e.Round
			switch {
			case e.Kind == KindGlitchNoise:
				noise++
			case e.Kind.Transient():
				poison++
			default:
				persistent++
			}
			if e.Round >= 40-4 {
				t.Fatalf("seed %d: event too late to repair: %v", seed, e)
			}
		}
		if noise == 0 || poison == 0 || persistent < 2 {
			t.Fatalf("seed %d: timeline missing mandatory events: %v", seed, evs)
		}
	}
}

func TestGlitchModeNames(t *testing.T) {
	for g, want := range map[GlitchMode]string{GlitchNoise: "noise", GlitchNaN: "nan", GlitchShape: "shape", GlitchPanic: "panic"} {
		if got := g.String(); got != want {
			t.Errorf("GlitchMode %d is %q, want %q", int(g), got, want)
		}
	}
}
