package main

import (
	"flag"
	"strings"
	"testing"
)

// TestRunRejectsBadPlotSize: a plot width or height below one fails run
// with an error naming the flag and the value, before any database is
// built — the unusable -db 3 would fail it otherwise.
func TestRunRejectsBadPlotSize(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"width", "0"},
		{"height", "0"},
		{"width", "-3"},
	} {
		fs := flag.NewFlagSet("asbviz", flag.ContinueOnError)
		_, run := declare(fs)
		if err := fs.Parse([]string{"-db", "3", "-" + tc.flag, tc.value}); err != nil {
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
