// Package cli is the front door the five commands share: the flag groups
// they all declare, the one parser behind every comma-separated flag
// value, the capabilities a built pool may or may not have, and the
// profile / run / exit epilogue. A command keeps its own flag names,
// defaults and help texts — they are arguments here — and nothing in
// this package is a knob of its own.
package cli

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/obs/shadow"
	"repro/internal/obs/tracing"
)

// DB is the -db / -objects / -seed group: which synthetic database a
// command works on.
type DB struct {
	Num     int
	Objects int
	Seed    int64
}

// Register declares the group on fs; the two usage strings are the
// command's own wording.
func (d *DB) Register(fs *flag.FlagSet, dbUsage, objectsUsage string) {
	fs.IntVar(&d.Num, "db", 1, dbUsage)
	fs.IntVar(&d.Objects, "objects", 0, objectsUsage)
	fs.Int64Var(&d.Seed, "seed", 1, "generation seed")
}

// Parse validates the group after flag parsing; call it before any
// expensive work so that a bad -objects fails the command up front.
func (d *DB) Parse() error {
	if d.Objects < 0 {
		return fmt.Errorf("bad -objects value %d (want an integer ≥ 0)", d.Objects)
	}
	return nil
}

// Options returns the experiment options the group selects.
func (d *DB) Options() experiment.Options {
	return experiment.Options{Objects: d.Objects, Seed: d.Seed}
}

// Get returns the selected database, built on first use.
func (d *DB) Get() (*experiment.Database, error) {
	return experiment.Get(d.Num, d.Options())
}

// Split splits a comma-separated flag value, trimming blanks and
// dropping empty entries.
func Split(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// Floats parses the comma-separated value of flag -name as finite
// numbers > 0; a malformed or non-positive entry is an error naming the
// flag, never silently dropped.
func Floats(name, s string) ([]float64, error) {
	var out []float64
	for _, part := range Split(s) {
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || !(v > 0) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("bad -%s entry %q (want a number > 0)", name, part)
		}
		out = append(out, v)
	}
	return out, nil
}

// formatFloats renders numbers in the form Floats reads back; flag
// defaults that are lists (shadow.DefaultLadder) go through it.
func formatFloats(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

// Shadow is bufserve's -shadow / -shadow-ladder / -shadow-sample group:
// the what-if policies and capacity rungs simulated by ghost caches
// beside the live pool, and how much of the event stream they are fed.
// Offline, the same simulators run over a recorded trace as
// tracedump -mrc.
type Shadow struct {
	Policies string
	Ladder   string
	Sample   int

	policies []string
	ladder   []float64
}

// Register declares the group on fs.
func (s *Shadow) Register(fs *flag.FlagSet) {
	fs.StringVar(&s.Policies, "shadow", strings.Join(shadow.DefaultPolicies(), ","),
		"comma-separated what-if policies (names or parameterized specs like LRU-K:4) simulated by shadow caches at the real capacity (empty disables shadow profiling)")
	fs.StringVar(&s.Ladder, "shadow-ladder", formatFloats(shadow.DefaultLadder()),
		"capacity multipliers the real policy is shadow-simulated at (the online miss-ratio curve)")
	fs.IntVar(&s.Sample, "shadow-sample", 1, "feed the shadow bank 1 in N request events")
}

// Parse validates the group after flag parsing; call it before any
// expensive work so a bad ladder fails the command up front.
func (s *Shadow) Parse() (err error) {
	if s.Sample < 1 {
		return fmt.Errorf("bad -shadow-sample value %d (want an integer ≥ 1)", s.Sample)
	}
	s.policies = Split(s.Policies)
	s.ladder, err = Floats("shadow-ladder", s.Ladder)
	return err
}

// Enabled reports whether any what-if policy was asked for.
func (s *Shadow) Enabled() bool { return len(s.policies) > 0 }

// Bank builds the ghost caches for a pool running the real policy at
// frames: every -shadow policy at that capacity and the real policy at
// every -shadow-ladder rung, over the default rolling window.
func (s *Shadow) Bank(real string, frames int) (*shadow.Bank, error) {
	return shadow.NewBank(shadow.Specs(real, frames, s.policies, s.ladder), core.Resolver, 0)
}

// Sampled puts the -shadow-sample 1-in-N request filter in front of
// next — the bank itself, or the ring that decouples it from the
// request path.
func (s *Shadow) Sampled(next obs.Sink) obs.Sink { return obs.NewSamplingSink(next, s.Sample) }

// Trace attaches the tracer and, where the layout has a latch to
// profile, the contention profiler; either may be nil.
func Trace(p buffer.Pool, t *tracing.Tracer, c *tracing.Contention) {
	if tp, ok := p.(interface{ SetTracer(*tracing.Tracer) }); ok && t != nil {
		tp.SetTracer(t)
	}
	if cp, ok := p.(interface{ EnableContention(*tracing.Contention) }); ok && c != nil {
		cp.EnableContention(c)
	}
}

// Close closes the pool where the layout has something to stop or flush
// (a shared pool's dirty pages, the async writers); closing twice, or a
// layout without Close, is a no-op.
func Close(p buffer.Pool) error {
	if c, ok := p.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// WriteFile creates path, hands fill a buffered writer and reports the
// first error of fill, the flush and the close.
func WriteFile(path string, fill func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := fill(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Main is the whole of a command's main function. declare declares the
// command's flags on fs and returns its body, plus the profile flags if
// it takes them (nil otherwise). Main parses the command line, starts
// the requested profiles, runs the body, stops the profiles, and exits 1
// with "name: error" on the first failure of the three.
func Main(name string, declare func(fs *flag.FlagSet) (prof *obs.ProfileFlags, run func() error)) {
	prof, run := declare(flag.CommandLine)
	flag.Parse()
	if prof == nil {
		prof = new(obs.ProfileFlags) // nothing requested: Start and stop do nothing
	}
	stop, err := prof.Start()
	if err == nil {
		err = run()
		if serr := stop(); err == nil {
			err = serr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, name+":", err)
		os.Exit(1)
	}
}
