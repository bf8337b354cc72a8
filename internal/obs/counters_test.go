package obs

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestCountersSnapshotPopulatesEveryField feeds one event of each kind
// Counters counts (and ring drops) and checks by reflection that no
// Snapshot field stays zero — a field added to Snapshot but never wired
// to an event or accumulator fails here.
func TestCountersSnapshotPopulatesEveryField(t *testing.T) {
	var c Counters
	c.Eviction(EvictionEvent{Page: 3, Reason: ReasonSLRU, Criterion: 0.5})
	c.OverflowPromotion(OverflowPromotionEvent{Page: 4})
	c.Adapt(AdaptEvent{OldC: 1, NewC: 2})
	c.Adapt(AdaptEvent{OldC: 2, NewC: 1})
	c.Adapt(AdaptEvent{OldC: 1, NewC: 1})
	c.AddDropped(5)

	snap := c.Snapshot()
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

// TestSnapshotJSONRoundTripAllFields fills every Snapshot field with a
// distinct value by reflection and asserts each comes back out of the
// marshaled JSON under its own key — so a field added without a
// (working) JSON tag, or an EvictionsByReason marshal regression, cannot
// slip through.
func TestSnapshotJSONRoundTripAllFields(t *testing.T) {
	var snap Snapshot
	v := reflect.ValueOf(&snap).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(uint64(1000 + i))
		case reflect.Array:
			// Every reason slot nonzero: MarshalJSON omits zero counts,
			// so a zero slot would not round-trip observably.
			for j := 0; j < f.Len(); j++ {
				f.Index(j).SetUint(uint64(j + 1))
			}
		default:
			t.Fatalf("Snapshot.%s has unexpected kind %s — extend this test", v.Type().Field(i).Name, f.Kind())
		}
	}

	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	// Every field must map to its own top-level key (no duplicate or
	// missing json tags) and carry its value.
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != v.NumField() {
		t.Errorf("marshaled snapshot has %d keys, want %d (one per field): %v", len(keys), v.NumField(), keys)
	}
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		raw := keys[v.Type().Field(i).Tag.Get("json")]
		if f := v.Field(i); f.Kind() == reflect.Uint64 {
			var got uint64
			if err := json.Unmarshal(raw, &got); err != nil || got != f.Uint() {
				t.Errorf("Snapshot.%s came back as %s (%v), want %d", name, raw, err, f.Uint())
			}
			continue
		}
		var got map[string]uint64
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatalf("Snapshot.%s came back as %s: %v", name, raw, err)
		}
		want := map[string]uint64{}
		snap.ByReason.Each(func(reason string, n uint64) { want[reason] = n })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Snapshot.%s came back as %v, want %v", name, got, want)
		}
	}
}
