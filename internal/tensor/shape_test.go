package tensor

import (
	"strings"
	"testing"
)

func TestAssertDimsAccepts(t *testing.T) {
	AssertDims("test", New(4, 7), 4, 7)
	AssertDims("test", New(4, 7), Wildcard, 7)
	AssertDims("test", New(4, 7), Wildcard, Wildcard)
	AssertDims("scalar", New()) // rank-0 matches an empty dim list
}

// assertPanicContains runs f and requires a panic whose message contains every
// fragment — the helpers exist precisely so shape bugs carry usable messages.
func assertPanicContains(t *testing.T, fragments []string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic, got none")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %v (%T) is not a string", r, r)
		}
		for _, frag := range fragments {
			if !strings.Contains(msg, frag) {
				t.Fatalf("panic message %q missing %q", msg, frag)
			}
		}
	}()
	f()
}

func TestAssertDimsWrongSize(t *testing.T) {
	assertPanicContains(t, []string{"MatMulInto dst", "[4 7]", "[4 8]"}, func() {
		AssertDims("MatMulInto dst", New(4, 8), 4, 7)
	})
}

func TestAssertDimsWrongRank(t *testing.T) {
	assertPanicContains(t, []string{"ForwardBatch x", "[* 16]", "[16]"}, func() {
		AssertDims("ForwardBatch x", New(16), Wildcard, 16)
	})
}

func TestAssertDimsNilTensor(t *testing.T) {
	assertPanicContains(t, []string{"observe", "nil tensor", "[3 5]"}, func() {
		AssertDims("observe", nil, 3, 5)
	})
}

func TestAssertDimsWildcardMessage(t *testing.T) {
	// the wildcard renders as * so the message reads as a pattern
	assertPanicContains(t, []string{"[* 7]"}, func() {
		AssertDims("op", New(3, 6), Wildcard, 7)
	})
}
