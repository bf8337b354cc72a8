package main

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

// TestFlagSurface pins every flag's name, type, default and usage string
// against testdata/flags.golden — the body of the command's -h output,
// generated from the commit before cmd/internal/cli existed — so a knob
// added, renamed or reworded shows up as a diff.
func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("tracedump", flag.ContinueOnError)
	declare(fs)
	var got bytes.Buffer
	fs.SetOutput(&got)
	fs.PrintDefaults()
	want, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("flag surface changed:\n--- got\n%s--- want\n%s", got.String(), want)
	}
}
