package main

import (
	"flag"
	"strings"
	"testing"
)

// TestRunRejectsBadNumbers: a worker count below one, or a buffer
// fraction that is not a finite number > 0, fails run with an error
// naming the flag and the value, before the listener opens — the
// unusable -addr would fail it otherwise.
func TestRunRejectsBadNumbers(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"workers", "0"},
		{"workers", "-3"},
		{"frac", "0"},
		{"frac", "-0.5"},
		{"frac", "NaN"},
		{"frac", "+Inf"},
	} {
		fs := flag.NewFlagSet("bufserve", flag.ContinueOnError)
		_, run := declare(fs)
		if err := fs.Parse([]string{"-addr", "no port", "-" + tc.flag, tc.value}); err != nil {
			t.Fatal(err)
		}
		err := run()
		if err == nil {
			t.Errorf("-%s %s: run succeeded", tc.flag, tc.value)
			continue
		}
		for _, part := range []string{"-" + tc.flag, tc.value} {
			if !strings.Contains(err.Error(), part) {
				t.Errorf("-%s %s: error %q does not mention %s", tc.flag, tc.value, err, part)
			}
		}
	}
}
