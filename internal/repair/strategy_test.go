package repair

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"reramtest/internal/dataset"
	"reramtest/internal/models"
	"reramtest/internal/monitor"
	"reramtest/internal/nn"
	"reramtest/internal/reram"
	"reramtest/internal/rng"
)

// countingReprogrammer is a Reprogrammer that only counts the calls it gets.
type countingReprogrammer struct{ reprograms, readouts, programs int }

func (c *countingReprogrammer) Reprogram()                  { c.reprograms++ }
func (c *countingReprogrammer) ReadoutNetwork() *nn.Network { c.readouts++; return nil }
func (c *countingReprogrammer) ProgramNetwork(*nn.Network)  { c.programs++ }

// rejectsUntouched runs a DiagnoseStuck that must fail on its inputs against
// the accelerator and against a counting fake, and asserts the fake saw no
// call.
func rejectsUntouched(t *testing.T, accel *reram.Accelerator, target *nn.Network, tol float64) []error {
	t.Helper()
	fake := &countingReprogrammer{}
	var errs []error
	for _, hw := range []Reprogrammer{accel, fake} {
		mask, err := DiagnoseStuck(hw, target, tol)
		if mask != nil || err == nil {
			t.Fatalf("%T: want nil mask + error, got mask=%v err=%v", hw, mask, err)
		}
		errs = append(errs, err)
	}
	if *fake != (countingReprogrammer{}) {
		t.Fatalf("rejected diagnosis touched the hardware: %+v", *fake)
	}
	return errs
}

func TestDiagnoseStuckRejectsBadTolerance(t *testing.T) {
	net := models.MLP(rng.New(11), 8, nil, 3)
	accel := reram.NewAccelerator(net, idealConfig(), 12)
	for _, tol := range []float64{0, -0.5} {
		for _, err := range rejectsUntouched(t, accel, net, tol) {
			var de *DiagnosisError
			if !errors.As(err, &de) || de.Reason != "tolerance" {
				t.Fatalf("tol=%g: want *DiagnosisError{tolerance}, got %v", tol, err)
			}
			if !IsTyped(err) {
				t.Fatalf("tol=%g: diagnosis error must count as typed", tol)
			}
		}
	}
}

func TestDiagnoseStuckRejectsDegenerateLayer(t *testing.T) {
	net := models.MLP(rng.New(13), 8, []int{6}, 3)
	accel := reram.NewAccelerator(net, idealConfig(), 14)
	// an all-zero weight matrix collapses the stuck threshold to zero: every
	// cell would read stuck and the mask would be garbage
	var zeroed string
	for _, p := range net.Params() {
		if strings.HasSuffix(p.Name, ".weight") {
			clear(p.Value.Data())
			zeroed = p.Name
			break
		}
	}
	for _, err := range rejectsUntouched(t, accel, net, 0.25) {
		var de *DiagnosisError
		if !errors.As(err, &de) || de.Reason != "degenerate" || de.Param != zeroed {
			t.Fatalf("want *DiagnosisError{degenerate, %s}, got %v", zeroed, err)
		}
		if !IsTyped(err) {
			t.Fatal("degenerate-layer error must count as typed")
		}
	}
}

func TestDiagnoseStuckAllowsZeroBiases(t *testing.T) {
	// freshly-initialised Dense biases are all-zero by construction; they
	// live in digital logic and must not trip the degenerate-layer check
	net := models.MLP(rng.New(15), 8, []int{6}, 3)
	accel := reram.NewAccelerator(net, idealConfig(), 16)
	if _, err := DiagnoseStuck(accel, net, 0.25); err != nil {
		t.Fatalf("zero biases misdiagnosed as degenerate: %v", err)
	}
}

// cancelOnWrite cancels a context the first time anything is logged —
// models.Train logs at the end of each epoch, so the cancellation lands
// mid-retrain, between epochs.
type cancelOnWrite struct{ cancel context.CancelFunc }

func (c *cancelOnWrite) Write(p []byte) (int, error) {
	c.cancel()
	return len(p), nil
}

func TestRetrainAroundCtxCancelRestoresState(t *testing.T) {
	r := rng.New(21)
	train := dataset.SynthDigits(60, dataset.DefaultDigitsConfig(400))
	net := nn.NewNetwork("toy", train.SampleDim(),
		nn.NewDense("fc1", r, train.SampleDim(), 24),
		nn.NewReLU("relu1"),
		nn.NewDense("fc2", r, 24, 10),
	)
	if err := models.Train(context.Background(), net, train, models.TrainConfig{Epochs: 1, BatchSize: 32, LR: 0.05, Momentum: 0.9, Seed: 22}); err != nil {
		t.Fatal(err)
	}

	// damage: SA0-freeze a fifth of the first layer
	stuck := make(StuckMask)
	dr := rng.New(23)
	for _, p := range net.Params() {
		mask := make([]bool, p.Value.Len())
		if p.Name == "fc1.weight" {
			d := p.Value.Data()
			for j := range d {
				if dr.Bernoulli(0.2) {
					d[j] = 0
					mask[j] = true
				}
			}
		}
		stuck[p.Name] = mask
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := DefaultRetrainConfig()
	cfg.Epochs = 3
	cfg.Log = &cancelOnWrite{cancel: cancel} // fires after epoch 1
	acc, err := RetrainAround(ctx, net, stuck, train, nil, cfg)
	if err == nil {
		t.Fatal("canceled retrain returned nil error")
	}
	if acc != 0 {
		t.Fatalf("canceled retrain returned accuracy %v", acc)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not unwrap to context.Canceled: %v", err)
	}
	var se *Error
	if !errors.As(err, &se) || se.Strategy != "retrain" {
		t.Fatalf("want typed *Error{retrain}, got %v", err)
	}
	if !IsTyped(err) {
		t.Fatal("cancellation error must count as typed")
	}

	// frozen positions must hold their fault values exactly after the abort
	for _, p := range net.Params() {
		mask := stuck[p.Name]
		d := p.Value.Data()
		for j, s := range mask {
			if s && d[j] != 0 {
				t.Fatalf("cancel leaked frozen weight %s[%d]=%v", p.Name, j, d[j])
			}
		}
	}
}

func TestIsTyped(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, true},
		{&Error{Strategy: "scrub", Op: "scrub", Err: errors.New("x")}, true},
		{fmt.Errorf("wrap: %w", &Error{Strategy: "remap", Op: "remap", Err: errors.New("y")}), true},
		{&DiagnosisError{Reason: "tolerance"}, true},
		{context.Canceled, true},
		{context.DeadlineExceeded, true},
		{errors.New("plain"), false},
		{fmt.Errorf("untyped %d", 7), false},
	}
	for err, want := range map[*DiagnosisError]string{
		{Reason: "tolerance", Tol: -1}:     "tolerance must be > 0, got -1",
		{Reason: "degenerate", Param: "w"}: `parameter "w" is degenerate`,
		{Reason: "other"}:                  "diagnose: other",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%+v reads %q, want %q", *err, err.Error(), want)
		}
	}
	for _, c := range cases {
		if got := IsTyped(c.err); got != c.want {
			t.Errorf("IsTyped(%v)=%v, want %v", c.err, got, c.want)
		}
	}
}

// fakeScrubber scripts the Scrubber surface.
type fakeScrubber struct{ scanned, rewritten int }

func (f *fakeScrubber) ScrubSoftErrors(tol float64) (int, int) { return f.scanned, f.rewritten }

func TestScrubStrategy(t *testing.T) {
	s := NewScrub(&fakeScrubber{scanned: 100, rewritten: 7}, 0.1)
	if s.Name() != "scrub" || s.Cost() != CostScrub {
		t.Fatalf("scrub identity wrong: %s/%d", s.Name(), s.Cost())
	}
	if s.Applicable(Diagnosis{Status: monitor.Degraded}) {
		t.Fatal("scrub applicable with no drifted cells")
	}
	d := Diagnosis{Status: monitor.Degraded, Drifted: 5}
	if !s.Applicable(d) {
		t.Fatal("scrub not applicable to drifted cells")
	}
	rep, err := s.Apply(context.Background(), d)
	if err != nil {
		t.Fatalf("scrub apply: %v", err)
	}
	if rep.Strategy != "scrub" || rep.Cells != 7 {
		t.Fatalf("scrub report wrong: %+v", rep)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Apply(ctx, d); !IsTyped(err) || err == nil {
		t.Fatalf("canceled scrub must return a typed error, got %v", err)
	}
}

// fakeRemapper scripts the Remapper surface.
type fakeRemapper struct{ remapped, corrected, uncorrectable int }

func (f *fakeRemapper) RemapStuck(maxPerLine int, tol float64) (int, int, int) {
	return f.remapped, f.corrected, f.uncorrectable
}

func TestRemapStrategy(t *testing.T) {
	s := NewRemap(&fakeRemapper{remapped: 2, corrected: 3, uncorrectable: 1}, 4, 0.1)
	if s.Name() != "remap" || s.Cost() != CostRemap {
		t.Fatalf("remap identity wrong: %s/%d", s.Name(), s.Cost())
	}
	if s.Applicable(Diagnosis{Status: monitor.Impaired}) {
		t.Fatal("remap applicable with no stuck cells")
	}
	d := Diagnosis{Status: monitor.Impaired, Stuck: 9}
	if !s.Applicable(d) {
		t.Fatal("remap not applicable to stuck cells")
	}
	rep, err := s.Apply(context.Background(), d)
	if err != nil {
		t.Fatalf("remap apply: %v", err)
	}
	if rep.Strategy != "remap" || rep.Cells != 5 {
		t.Fatalf("remap report wrong: %+v", rep)
	}
	if !strings.Contains(rep.Detail, "1 uncorrectable") {
		t.Fatalf("remap detail missing uncorrectable count: %q", rep.Detail)
	}
}

func TestFuncStrategyAdapter(t *testing.T) {
	called := false
	s := Func{
		StrategyName: "custom",
		StrategyCost: 3,
		When:         func(d Diagnosis) bool { return d.Stuck > 0 },
		Do: func(ctx context.Context, d Diagnosis) (Report, error) {
			called = true
			return Report{Strategy: "custom"}, nil
		},
	}
	if s.Name() != "custom" || s.Cost() != 3 {
		t.Fatalf("func identity wrong: %s/%d", s.Name(), s.Cost())
	}
	if s.Applicable(Diagnosis{}) || !s.Applicable(Diagnosis{Stuck: 1}) {
		t.Fatal("func applicability not delegated to When")
	}
	if _, err := s.Apply(context.Background(), Diagnosis{Stuck: 1}); err != nil || !called {
		t.Fatalf("func apply not delegated: err=%v called=%v", err, called)
	}
}

func TestDiagnosisString(t *testing.T) {
	d := Diagnosis{Status: monitor.Degraded, Drifted: 3, Stuck: 2, Spares: 1}
	for _, want := range []string{"degraded", "drifted=3", "stuck=2", "spares=1"} {
		if !strings.Contains(strings.ToLower(d.String()), want) {
			t.Fatalf("diagnosis %q missing %q", d.String(), want)
		}
	}
}
