package main

import (
	"flag"
	"strings"
	"testing"
)

// TestRunRejectsIgnoredFlags: a negative -window or -objects, a
// -trace-sample below one, and -window or -events without the -sets they
// act on, fail run with an error naming the flag, before any database is
// built — the unknown -db 3 would fail it otherwise.
func TestRunRejectsIgnoredFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-sets", "U-P", "-window", "-1"}, "-window"},
		{[]string{"-figure", "4", "-window", "100"}, "-window"},
		{[]string{"-figure", "4", "-events", "e.jsonl"}, "-events"},
		{[]string{"-sets", "U-P", "-trace-sample", "0"}, "-trace-sample"},
		{[]string{"-sets", "U-P", "-objects", "-5"}, "-objects"},
	} {
		fs := flag.NewFlagSet("spatialbench", flag.ContinueOnError)
		_, run := declare(fs)
		if err := fs.Parse(append([]string{"-db", "3"}, tc.args...)); err != nil {
			t.Fatal(err)
		}
		err := run()
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%v: run returned %v, want an error naming %s", tc.args, err, tc.flag)
		}
	}
}
