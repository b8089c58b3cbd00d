package fleet

import (
	"errors"
	"strings"
	"testing"

	"reramtest/internal/monitor"
)

// The router's refusals must be typed (ErrNoEligibleDevice) and must say why
// the placement failed — empty schedule or the avoided-candidate rule.

func TestDispatchErrTypedOnAvoidExhaustion(t *testing.T) {
	r := NewRouter()
	r.Update([]RouteEntry{{ID: "a", Status: monitor.Healthy}})

	_, _, err := r.DispatchAvoidingErr("a")
	if err == nil {
		t.Fatal("dispatch avoiding the only candidate returned no error")
	}
	if !errors.Is(err, ErrNoEligibleDevice) {
		t.Fatalf("avoid-exhausted error %v does not match ErrNoEligibleDevice", err)
	}
	if !strings.Contains(err.Error(), `"a"`) {
		t.Fatalf("avoid-exhausted error %q does not name the excluded device", err)
	}

	// a legal placement still works
	id, _, err := r.DispatchAvoidingErr("")
	if err != nil || id != "a" {
		t.Fatalf("unavoided dispatch = (%q, %v), want (a, nil)", id, err)
	}
}

func TestDispatchErrTypedOnEmptyFleet(t *testing.T) {
	r := NewRouter()
	r.Update(nil)
	_, _, err := r.DispatchAvoidingErr("")
	if !errors.Is(err, ErrNoEligibleDevice) {
		t.Fatalf("empty-schedule error %v does not match ErrNoEligibleDevice", err)
	}
}
