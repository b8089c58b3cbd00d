package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readDocument(path string) (document, error) {
	var doc document
	data, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// compareFiles prints, per workload × end-to-end metric, how far document b
// is from baseline a in the metric's worse direction, and PASS/FAIL against
// the metric's bound. It reports whether every pair passed.
func compareFiles(out io.Writer, pathA, pathB string) (bool, error) {
	a, err := readDocument(pathA)
	if err != nil {
		return false, err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return false, err
	}
	after := make(map[string]result, len(b.Workloads))
	for _, w := range b.Workloads {
		after[w.Name] = w.result
	}
	pass := true
	fmt.Fprintf(out, "%-18s %-15s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, w := range a.Workloads {
		other, ok := after[w.Name]
		if !ok {
			return false, fmt.Errorf("%s has no workload %s", pathB, w.Name)
		}
		for _, d := range endToEnd {
			va, vb := w.Metrics[d.name].Value, other.Metrics[d.name].Value
			worse := (vb - va) / va
			if d.higher {
				worse = -worse
			}
			verdict := "PASS"
			if worse > d.bound {
				verdict, pass = "FAIL", false
			}
			fmt.Fprintf(out, "%-18s %-15s %14.4f %14.4f %+8.2f%% %6.0f%% %s\n",
				w.Name, d.name, va, vb, 100*worse, 100*d.bound, verdict)
		}
	}
	return pass, nil
}
