package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// goldenTinyFixture pins the rendered reproduction at tinyScale(): every
// table, Figs. 3–6 and 8, and the pool-depth and converter ablations, with
// the section headers cmd/experiment prints. Fig. 7 and the alpha and
// reference-σ ablations are too slow for go test; `make repro-check` holds
// them, with everything else at the default scale, to results_all.txt and
// results_ablations.txt. Regenerate only when an experiment changes on
// purpose:
//
//	EXPERIMENTS_REGEN_FIXTURES=1 go test ./internal/experiments -run GoldenTinyFixture
const goldenTinyFixture = "testdata/golden_tiny.txt"

func TestGoldenTinyFixture(t *testing.T) {
	e := env(t)
	runs := []struct {
		id     string
		render func() string
	}{
		{"table1", func() string { return e.Table1().Render() }},
		{"table2", func() string { return e.Table2().Render() }},
		{"table3", func() string { return e.Table3().Render() }},
		{"table4", func() string { return e.Table4().Render() }},
		{"fig3", func() string { return e.Fig3().Render() }},
		{"fig4", func() string { return e.Fig4().Render() }},
		{"fig5", func() string { return e.Fig5().Render() }},
		{"fig6", func() string { return e.Fig6().Render() }},
		{"fig8", func() string { return e.Fig8().Render() }},
		{"ablation-pool", func() string { return e.AblationCTPPool().Render() }},
		{"ablation-adc", func() string { return e.AblationADCBits().Render() }},
	}
	var b bytes.Buffer
	for _, r := range runs {
		b.WriteString("=== " + strings.ToUpper(r.id) + " ===\n")
		b.WriteString(r.render())
		b.WriteByte('\n')
	}
	got := b.Bytes()
	if os.Getenv("EXPERIMENTS_REGEN_FIXTURES") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTinyFixture, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenTinyFixture)
		return
	}
	want, err := os.ReadFile(goldenTinyFixture)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("reproduction diverged from the pinned render\ngot:\n%s\nwant:\n%s", got, want)
	}
}
