package main

import (
	"bytes"
	"os"
	"testing"
)

// costFixture pins what -cost prints at the default seed and rounds: the
// per-class ledger table and every episode's measured repair spend. It is
// compared to the committed bytes, never to a live reference. Regenerate
// only when the plant or the cost model changes on purpose:
//
//	MONITOR_REGEN_FIXTURES=1 go test ./cmd/monitor -run CostLedgerFixture
const costFixture = "testdata/cost_ledger.txt"

func TestCostLedgerFixture(t *testing.T) {
	var got, stderr bytes.Buffer
	if code := runCost(&got, &stderr, 1000, 40); code != 0 || stderr.Len() != 0 {
		t.Fatalf("runCost exited %d, stderr %q", code, stderr.String())
	}
	if os.Getenv("MONITOR_REGEN_FIXTURES") != "" {
		if err := os.WriteFile(costFixture, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", costFixture)
		return
	}
	want, err := os.ReadFile(costFixture)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("-cost ledger diverged from the pinned fixture\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
