package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/buffer"
	"repro/internal/page"
)

// maxSpecK bounds the history depth a spec may ask of LRU-K.
const maxSpecK = 64

// ParseSpec resolves a parameterized policy spec to a Factory. A spec is
// a colon-separated list whose head names the policy family
// (case-insensitive) and whose tail supplies parameters:
//
//	LRU-K:<k>                              history depth 1 ≤ k ≤ 64, e.g. LRU-K:4
//	SLRU:<crit>:<size>                     spatial criterion (A, EA, M, EM, EO)
//	                                       and candidate-set size: values < 1
//	                                       are a fraction of the buffer
//	                                       capacity ("SLRU:EA:0.25"), values
//	                                       ≥ 1 an absolute frame count
//	                                       ("SLRU:A:12")
//	SPATIAL:<crit>                         pure spatial policy, e.g. SPATIAL:EM
//	ASB:<crit>[:<over>[:<cand>[:<step>]]]  criterion plus optional overflow,
//	                                       initial-candidate and step
//	                                       fractions, e.g. ASB:A:0.2:0.25:0.01
//	PIN:<minLevel>                         pin tree levels ≥ minLevel
//
// The returned Factory keeps the original spec string as its Name, so
// result files and metrics label the run with the exact configuration.
func ParseSpec(spec string) (Factory, error) {
	parts := strings.Split(spec, ":")
	head := strings.ToUpper(strings.TrimSpace(parts[0]))
	args := parts[1:]
	bad := func(format string, a ...any) (Factory, error) {
		return Factory{}, fmt.Errorf("core: bad policy spec %q: %s", spec, fmt.Sprintf(format, a...))
	}
	switch head {
	case "LRU-K":
		if len(args) != 1 {
			return bad("want LRU-K:<k>")
		}
		// LRU-K keeps k words per history record from the first admission
		// on; the paper uses 2, 3 and 5.
		k, err := strconv.Atoi(args[0])
		if err != nil || k < 1 || k > maxSpecK {
			return bad("k must be an integer in [1, %d], got %q", maxSpecK, args[0])
		}
		return Factory{Name: spec, New: func(int) buffer.Policy { return NewLRUK(k) }}, nil

	case "SLRU":
		if len(args) != 2 {
			return bad("want SLRU:<crit>:<size>")
		}
		crit, err := page.ParseCriterion(args[0])
		if err != nil {
			return bad("%v", err)
		}
		// Written so that NaN fails it; the upper bound keeps int(size)
		// defined (+Inf and 1e30 convert to a negative frame count).
		size, err := strconv.ParseFloat(args[1], 64)
		if err != nil || !(size > 0 && size <= math.MaxInt32) {
			return bad("size must be a positive number (a frame count at most %d), got %q", math.MaxInt32, args[1])
		}
		return Factory{Name: spec, New: func(c int) buffer.Policy {
			if size < 1 {
				return NewSLRU(crit, fracOf(c, size))
			}
			return NewSLRU(crit, int(size))
		}}, nil

	case "SPATIAL":
		if len(args) != 1 {
			return bad("want SPATIAL:<crit>")
		}
		crit, err := page.ParseCriterion(args[0])
		if err != nil {
			return bad("%v", err)
		}
		return Factory{Name: spec, New: func(int) buffer.Policy { return NewSpatial(crit) }}, nil

	case "ASB":
		if len(args) < 1 || len(args) > 4 {
			return bad("want ASB:<crit>[:<overflowFrac>[:<initCandFrac>[:<stepFrac>]]]")
		}
		crit, err := page.ParseCriterion(args[0])
		if err != nil {
			return bad("%v", err)
		}
		opts := DefaultASBOptions()
		opts.Criterion = crit
		fracs := []*float64{&opts.OverflowFrac, &opts.InitialCandFrac, &opts.StepFrac}
		names := []string{"overflow", "initial-candidate", "step"}
		for i, a := range args[1:] {
			v, err := strconv.ParseFloat(a, 64)
			if err != nil || !(v > 0 && v < 1) { // NaN is in no interval
				return bad("%s fraction must be in (0, 1), got %q", names[i], a)
			}
			*fracs[i] = v
		}
		return Factory{Name: spec, New: func(c int) buffer.Policy { return NewASB(c, opts) }}, nil

	case "PIN":
		if len(args) != 1 {
			return bad("want PIN:<minLevel>")
		}
		lvl, err := strconv.Atoi(args[0])
		if err != nil || lvl < 0 {
			return bad("minLevel must be an integer ≥ 0, got %q", args[0])
		}
		return Factory{Name: spec, New: func(int) buffer.Policy { return NewPinLevels(lvl) }}, nil
	}
	return bad("unknown policy family %q (want LRU-K, SLRU, SPATIAL, ASB or PIN)", parts[0])
}
