package reramtest_test

import (
	"errors"
	"go/build"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// layers is the committed import graph of internal/: a package may import
// only packages of a strictly lower layer (an earlier line). The serving
// stack — from engine and wire up to netserve — sits below the crossbar
// simulator, reram: the concurrent test reads output confidences and never
// looks inside a crossbar, so nothing that serves or monitors links the
// device model. Only the reproduction and the soak harness, which build
// simulated devices, sit above it.
//
// Test files are not held to the table: a test may reach up to an oracle
// (repair's tests drive a real reram.Accelerator) as long as Go's own cycle
// check passes.
var layers = [][]string{
	{"rng", "stats", "journal", "wire/pow10gen"},
	{"tensor"},
	{"nn", "dataset"},
	{"hwcost", "faults"},
	{"engine", "tengine", "wire"},
	{"models", "testgen", "loadgen", "wire/wiretest"},
	{"monitor"},
	{"repair"},
	{"health"},
	{"fleet"},
	{"serve"},
	{"netserve"},
	{"reram"},
	{"campaign", "experiments"},
}

// TestImportLayering fails on any internal package the table does not list,
// on any entry that names no package, and on any non-test import of an
// internal package that is not in a strictly lower layer.
func TestImportLayering(t *testing.T) {
	rank := map[string]int{}
	for i, layer := range layers {
		for _, p := range layer {
			rank[p] = i
		}
	}
	seen := map[string]bool{}
	err := filepath.WalkDir("internal", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		pkg, err := build.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		name := strings.TrimPrefix(filepath.ToSlash(dir), "internal/")
		seen[name] = true
		own, ok := rank[name]
		if !ok {
			t.Errorf("internal/%s is not in the layer table", name)
			return nil
		}
		for _, imp := range pkg.Imports {
			dep, internal := strings.CutPrefix(imp, "reramtest/internal/")
			if !internal {
				continue
			}
			if r, ok := rank[dep]; ok && r >= own { // an unlisted dep is reported on its own
				t.Errorf("internal/%s (layer %d) imports internal/%s (layer %d): imports must point to a lower layer", name, own, dep, r)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := range rank {
		if !seen[p] {
			t.Errorf("layer table lists internal/%s, which holds no package", p)
		}
	}
}
