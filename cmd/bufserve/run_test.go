package main

import (
	"flag"
	"strings"
	"testing"
)

// TestRunRejectsBadNumbers: a worker count below one, a buffer fraction
// that is not a finite number > 0, or a count or duration below its
// least meaningful value fails run with an error naming the flag and the
// value, before the listener opens — the unusable -addr would fail it
// otherwise.
func TestRunRejectsBadNumbers(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"workers", "0"},
		{"workers", "-3"},
		{"frac", "0"},
		{"frac", "-0.5"},
		{"frac", "NaN"},
		{"frac", "+Inf"},
		{"loops", "-1"},
		{"rate", "-5"},
		{"duration", "-1s"},
		{"trace-sample", "-4"},
		{"ring", "-1"},
		{"trace-buf", "0"},
		{"sample", "0"},
		{"objects", "-1"},
		{"shadow-sample", "0"},
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
