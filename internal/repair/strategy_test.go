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
	err := RetrainAround(ctx, net, stuck, train, cfg)
	if err == nil {
		t.Fatal("canceled retrain returned nil error")
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

// fakeScrubber scripts the Scrubber surface and records its calls.
type fakeScrubber struct {
	scanned, rewritten int
	tols               []float64
}

func (f *fakeScrubber) ScrubSoftErrors(tol float64) (int, int) {
	f.tols = append(f.tols, tol)
	return f.scanned, f.rewritten
}

func TestScrubStrategy(t *testing.T) {
	hw := &fakeScrubber{scanned: 100, rewritten: 7}
	s := NewScrub(hw, 0.1)
	if s.Name != "scrub" || s.Cost != CostScrub {
		t.Fatalf("scrub identity wrong: %s/%d", s.Name, s.Cost)
	}
	if s.When(Diagnosis{Status: monitor.Degraded}) {
		t.Fatal("scrub applicable with no drifted cells")
	}
	d := Diagnosis{Status: monitor.Degraded, Drifted: 5}
	if !s.When(d) {
		t.Fatal("scrub not applicable to drifted cells")
	}
	rep, err := s.Apply(context.Background(), d)
	if err != nil {
		t.Fatalf("scrub apply: %v", err)
	}
	if rep.NewRef != nil {
		t.Fatal("scrub handed back a new reference")
	}
	if len(hw.tols) != 1 || hw.tols[0] != 0.1 {
		t.Fatalf("scrub asked the hardware for %v, want one sweep at tol 0.1", hw.tols)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Apply(ctx, d); !IsTyped(err) || err == nil {
		t.Fatalf("canceled scrub must return a typed error, got %v", err)
	}
	if len(hw.tols) != 1 {
		t.Fatalf("canceled scrub swept the hardware: %v", hw.tols)
	}
}

// fakeRemapper scripts the Remapper surface and records its calls.
type fakeRemapper struct {
	remapped, corrected, uncorrectable int
	calls                              [][2]float64 // (maxPerLine, tol)
}

func (f *fakeRemapper) RemapStuck(maxPerLine int, tol float64) (int, int, int) {
	f.calls = append(f.calls, [2]float64{float64(maxPerLine), tol})
	return f.remapped, f.corrected, f.uncorrectable
}

func TestRemapStrategy(t *testing.T) {
	hw := &fakeRemapper{remapped: 2, corrected: 3, uncorrectable: 1}
	s := NewRemap(hw, 4, 0.1)
	if s.Name != "remap" || s.Cost != CostRemap {
		t.Fatalf("remap identity wrong: %s/%d", s.Name, s.Cost)
	}
	if s.When(Diagnosis{Status: monitor.Impaired}) {
		t.Fatal("remap applicable with no stuck cells")
	}
	d := Diagnosis{Status: monitor.Impaired, Stuck: 9}
	if !s.When(d) {
		t.Fatal("remap not applicable to stuck cells")
	}
	rep, err := s.Apply(context.Background(), d)
	if err != nil {
		t.Fatalf("remap apply: %v", err)
	}
	if rep.NewRef != nil {
		t.Fatal("remap handed back a new reference")
	}
	if len(hw.calls) != 1 || hw.calls[0] != [2]float64{4, 0.1} {
		t.Fatalf("remap asked the hardware for %v, want one pass at (4, 0.1)", hw.calls)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Apply(ctx, d); !IsTyped(err) || err == nil {
		t.Fatalf("canceled remap must return a typed error, got %v", err)
	}
	if len(hw.calls) != 1 {
		t.Fatalf("canceled remap touched the hardware: %v", hw.calls)
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

// programCounter is an accelerator that counts the networks programmed onto
// it.
type programCounter struct {
	*reram.Accelerator
	programs int
}

func (p *programCounter) ProgramNetwork(net *nn.Network) {
	p.programs++
	p.Accelerator.ProgramNetwork(net)
}

// TestRetrainStrategy: the retrain rung deploys the retrained readout and
// hands it back as the new reference; a failed diagnosis or a canceled
// retrain returns a typed error and deploys nothing.
func TestRetrainStrategy(t *testing.T) {
	net, train := trainToy(t)
	hw := &programCounter{Accelerator: reram.NewAccelerator(net, idealConfig(), 31)}
	cfg := func() models.TrainConfig {
		c := DefaultRetrainConfig()
		c.Epochs = 1
		return c
	}
	ref := func() *nn.Network { return net }

	s := NewRetrain(hw, ref, train, 0, cfg)
	if s.Name != "retrain" || s.Cost != CostRetrain || !s.When(Diagnosis{}) {
		t.Fatalf("retrain identity wrong: %s/%d", s.Name, s.Cost)
	}
	_, err := s.Apply(context.Background(), Diagnosis{})
	var se *Error
	if !errors.As(err, &se) || se.Op != "diagnose" || hw.programs != 0 {
		t.Fatalf("zero-tolerance diagnosis: err %v, %d programs; want a typed diagnose error and none", err, hw.programs)
	}

	s = NewRetrain(hw, ref, train, 0.3, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Apply(ctx, Diagnosis{}); !errors.Is(err, context.Canceled) || !IsTyped(err) || hw.programs != 0 {
		t.Fatalf("canceled retrain: err %v, %d programs; want typed context.Canceled and none", err, hw.programs)
	}

	rep, err := s.Apply(context.Background(), Diagnosis{})
	if err != nil || rep.NewRef == nil || rep.NewRef == net || hw.programs != 1 {
		t.Fatalf("retrain: err %v, NewRef %p, %d programs; want a fresh reference deployed once", err, rep.NewRef, hw.programs)
	}
}
