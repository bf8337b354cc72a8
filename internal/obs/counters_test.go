package obs

import (
	"reflect"
	"testing"
)

// snapshot returns a point-in-time copy of the counters.
func (c *Counters) snapshot() Snapshot {
	var s Snapshot
	c.addTo(&s)
	return s
}

// TestCountersSnapshotPopulatesEveryField records one decision of each
// kind Counters counts (and ring drops) and checks by reflection that no
// Snapshot field stays zero — a field added to Snapshot but never wired
// to a recorder or accumulator fails here.
func TestCountersSnapshotPopulatesEveryField(t *testing.T) {
	var c Counters
	c.evicted(ReasonSLRU)
	c.adapted(1, 2)
	c.adapted(2, 1)
	c.adapted(1, 1)
	c.AddDropped(5)

	snap := c.snapshot()
	v := reflect.ValueOf(snap)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			if f.Uint() == 0 {
				t.Errorf("Snapshot.%s = 0 after an event mix covering every kind", name)
			}
		case reflect.Array: // ByReason
			nonzero := false
			for j := 0; j < f.Len(); j++ {
				nonzero = nonzero || f.Index(j).Uint() != 0
			}
			if !nonzero {
				t.Errorf("Snapshot.%s has no nonzero slot", name)
			}
		default:
			t.Errorf("Snapshot.%s has unexpected kind %s — extend this test", name, f.Kind())
		}
	}
}
