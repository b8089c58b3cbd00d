package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestSoakModeRefusals pins the runner's refusals: no soak may pass having
// run nothing, and a name that is not a soak is a usage error that lists
// the valid ones. "-soak -campaigns 0" is how the old boolean -soak
// spelling now parses: the soak is named "-campaigns".
func TestSoakModeRefusals(t *testing.T) {
	type refusal struct {
		args []string
		code int
		want []string // substrings of stderr
	}
	cases := []refusal{
		{[]string{"-soak", "bogus"}, 2, soakNames()},
		{[]string{"-soak", "-campaigns", "0"}, 2, append([]string{`unknown soak "-campaigns"`}, soakNames()...)},
		{[]string{"-cost", "-soak", "net"}, 2, []string{"separate modes"}},
	}
	for _, name := range soakNames() {
		cases = append(cases, refusal{[]string{"-soak", name, "-campaigns", "0"}, 1, []string{"nothing exercised"}})
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != c.code {
			t.Errorf("%v: exit %d, want %d (stderr %q)", c.args, code, c.code, stderr.String())
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(stderr.String(), w) {
				t.Errorf("%v: stderr %q lacks %q", c.args, stderr.String(), w)
			}
		}
		if strings.Contains(stdout.String(), "gate: PASS") {
			t.Errorf("%v: printed gate: PASS", c.args)
		}
	}
}
