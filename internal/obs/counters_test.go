package obs

import "testing"

// TestCountersAggregate: evictions land in their reason's slot (an
// unknown reason in "other") and Each names them back in slot order;
// drops accumulate in Counters.
func TestCountersAggregate(t *testing.T) {
	var e EvictionsByReason
	e.Add(ReasonSLRU)
	e.Add(ReasonASBOverflow)
	e.Add(ReasonASBOverflow)
	e.Add("made-up")
	var want EvictionsByReason
	want[reasonSlotSLRU], want[reasonSlotASBOverflow], want[reasonSlotOther] = 1, 2, 1
	if e != want {
		t.Errorf("counts = %v, want %v", e, want)
	}
	var got []string
	e.Each(func(reason string, n uint64) { got = append(got, reason) })
	if len(got) != 3 || got[0] != ReasonSLRU || got[1] != ReasonASBOverflow || got[2] != "other" {
		t.Errorf("Each named %v, want slru, asb-overflow, other", got)
	}

	var c Counters
	c.AddDropped(4)
	c.AddDropped(1)
	if c.Dropped() != 5 {
		t.Errorf("dropped = %d, want 5", c.Dropped())
	}
}

// TestEveryReasonHasASlot: every named reason has a slot of its own,
// which Each labels with that reason, so no reason counts as "other".
func TestEveryReasonHasASlot(t *testing.T) {
	for i, name := range reasonSlotNames[:reasonSlotOther] {
		if got := reasonSlot(name); got != i {
			t.Errorf("reason %q files into slot %d, its label is slot %d's", name, got, i)
		}
	}
}
