package main

import (
	"strings"
	"testing"

	"repro/internal/buffer"
)

func TestSameSequence(t *testing.T) {
	mk := func(name, policy string, hits, misses uint64) *rung {
		return &rung{spec: rungSpec{name: name, policy: policy}, first: buffer.Stats{Hits: hits, Misses: misses}}
	}
	same := []*rung{mk("lru", "LRU", 10, 90), mk("asb", policyName, 20, 80), mk("locked", policyName, 20, 80)}
	if err := sameSequence(same); err != nil {
		t.Errorf("equal ASB rungs (LRU rung differs by design): %v", err)
	}
	off := append(same, mk("async", policyName, 21, 79))
	err := sameSequence(off)
	if err == nil || !strings.Contains(err.Error(), "async") {
		t.Errorf("a rung serving a different sequence must fail and be named, got %v", err)
	}
}
