package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"
)

// contract mirrors the root BENCHMARK.json.
type contract struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []contractMetric             `json:"end_to_end"`
	PerLayer  []contractMetric             `json:"per_layer"`
}

type contractMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesProgram holds BENCHMARK.json and the program's own
// tables to the same workloads, names, units, directions and bounds.
func TestContractMatchesProgram(t *testing.T) {
	c := readContract(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || !name.MatchString(w.name) {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, c.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, listed []contractMetric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program declares %d", kind, len(listed), len(defs))
		}
		for i, d := range defs {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			want := contractMetric{Name: d.name, Unit: d.unit, Better: better, Bound: d.bound}
			if listed[i] != want {
				t.Errorf("%s metric %d: BENCHMARK.json says %+v, the program %+v", kind, i, listed[i], want)
			}
			if !name.MatchString(d.name) {
				t.Errorf("%s metric name %q is outside [A-Za-z0-9_.-]", kind, d.name)
			}
		}
	}
	same("end_to_end", c.EndToEnd, endToEnd)
	same("per_layer", c.PerLayer, perLayer)
}

// TestQuickRun runs every workload through both runs at smoke-test size: all
// gates pass, nothing fails, every declared metric comes out finite, and the
// ladder's rungs sum to its top.
func TestQuickRun(t *testing.T) {
	for _, w := range workloads {
		e2e, err := runEndToEnd(w, 1, quickParams())
		if err != nil {
			t.Fatalf("%s end-to-end run: %v", w.name, err)
		}
		layers, err := runLayers(w, 1, quickParams(), "")
		if err != nil {
			t.Fatalf("%s traced run: %v", w.name, err)
		}
		for _, run := range []struct {
			res  result
			defs []metricDef
		}{{e2e, endToEnd}, {layers, perLayer}} {
			if !run.res.Correct || run.res.Attempted == 0 || run.res.Failed != 0 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, run.res.Correct, run.res.Attempted, run.res.Failed)
			}
			if len(run.res.Metrics) != len(run.defs) {
				t.Errorf("%s: %d metrics out, %d declared", w.name, len(run.res.Metrics), len(run.defs))
			}
			for _, d := range run.defs {
				m, ok := run.res.Metrics[d.name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.unit {
					t.Errorf("%s: metric %s = %+v (present %v)", w.name, d.name, m, ok)
				}
			}
		}
		for _, d := range endToEnd {
			if e2e.Metrics[d.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, e2e.Metrics[d.name].Value)
			}
		}
		var rungs float64
		for _, r := range []string{"engine.probs_us", "serve.station_us", "serve.do_us",
			"netserve.do_us", "netserve.http_us", "loadgen.client_us"} {
			rungs += layers.Metrics[r].Value
		}
		if top := layers.Metrics["trace.serial_total_us"].Value; math.Abs(rungs-top) > 1e-6 {
			t.Errorf("%s: ladder rungs sum to %v us, top rung is %v us", w.name, rungs, top)
		}
		if w.tick > 0 && layers.Metrics["monitor.detect_ticks"].Value < 1 {
			t.Errorf("%s: fault detection took %v ticks", w.name, layers.Metrics["monitor.detect_ticks"].Value)
		}
	}
}

// TestQuiet: of four windows the two that answered most requests are kept,
// whole.
func TestQuiet(t *testing.T) {
	ms := time.Millisecond
	g := segment{length: 400 * ms,
		sentAt: []time.Duration{10 * ms, 110 * ms, 120 * ms, 130 * ms, 210 * ms, 310 * ms, 320 * ms},
		latMs:  []float64{9, 1, 2, 3, 8, 4, 5}}
	latMs, wall := g.quiet(100*ms, 0.5)
	slices.Sort(latMs)
	if want := []float64{1, 2, 3, 4, 5}; !slices.Equal(latMs, want) || wall != 200*ms {
		t.Errorf("quiet kept %v over %v, want %v over 200ms", latMs, wall, want)
	}
}

// TestCompare: a document passes against itself and fails against one whose
// throughput dropped by twice the bound.
func TestCompare(t *testing.T) {
	base := document{Workloads: []namedWorkload{{Name: "w", result: result{Metrics: map[string]metric{}}}}}
	for _, d := range endToEnd {
		base.Workloads[0].Metrics[d.name] = metric{Value: 100, Unit: d.unit}
	}
	write := func(name string, doc document) string {
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", base)
	if pass, err := compareFiles(io.Discard, a, a); err != nil || !pass {
		t.Errorf("a document against itself: pass=%v err=%v", pass, err)
	}
	base.Workloads[0].Metrics["rows_per_s"] = metric{Value: 100 * (1 - 2*endToEnd[0].bound), Unit: "rows/s"}
	if pass, err := compareFiles(io.Discard, a, write("b.json", base)); err != nil || pass {
		t.Errorf("rows/s down by twice its bound: pass=%v err=%v", pass, err)
	}
}
