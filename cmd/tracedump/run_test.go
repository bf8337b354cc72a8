package main

import (
	"flag"
	"strings"
	"testing"
)

// TestRunRejectsBadMRCFlags: a policy or capacity named twice (which
// would write identical rows or columns), an empty or unknown policy,
// and -mrc-policies or -mrc-capacities without the -mrc they act on
// fail run with an error naming the flag, before any database is built
// — the unknown -db 3 would fail it otherwise.
func TestRunRejectsBadMRCFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-mrc", "m.csv", "-mrc-capacities", "4,4"}, "-mrc-capacities"},
		{[]string{"-mrc", "m.csv", "-mrc-capacities", "1"}, "-mrc-capacities"},
		{[]string{"-mrc", "m.csv", "-mrc-policies", "LRU,LRU"}, "-mrc-policies"},
		{[]string{"-mrc", "m.csv", "-mrc-policies", ""}, "-mrc-policies"},
		{[]string{"-mrc", "m.csv", "-mrc-policies", "LRU,LUR"}, "-mrc-policies"},
		{[]string{"-mrc-policies", "LRU"}, "-mrc-policies"},
		{[]string{"-mrc-capacities", "16"}, "-mrc-capacities"},
	} {
		fs := flag.NewFlagSet("tracedump", flag.ContinueOnError)
		_, run := declare(fs)
		if err := fs.Parse(append([]string{"-db", "3"}, tc.args...)); err != nil {
			t.Fatal(err)
		}
		err := run()
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%q: run returned %v, want an error naming %s", tc.args, err, tc.flag)
		}
	}
}
