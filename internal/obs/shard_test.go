package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestJSONLShardField pins the wire format: events from shard 0 (and all
// unsharded pools) serialize exactly as before — no "shard" key — while
// nonzero shards carry it, so existing JSONL consumers keep working.
func TestJSONLShardField(t *testing.T) {
	var buf bytes.Buffer
	s := newJSONLSink(&buf)
	s.Request(RequestEvent{Page: 12, QueryID: 3, Hit: true})
	s.Request(RequestEvent{Page: 12, QueryID: 3, Hit: true, Shard: 2})
	s.Eviction(EvictionEvent{Page: 9, Reason: ReasonLRU, Shard: 5})
	s.Adapt(AdaptEvent{Page: 7, OldC: 3, NewC: 4, Shard: 7})
	s.Eviction(EvictionEvent{Page: 8, Reason: ReasonLRU})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), buf.String())
	}
	if strings.Contains(lines[0], "shard") {
		t.Errorf("shard-0 request must omit the shard key: %s", lines[0])
	}
	if strings.Contains(lines[4], "shard") {
		t.Errorf("shard-0 eviction must omit the shard key: %s", lines[4])
	}
	wantShards := []int{2, 5, 7}
	for i, line := range lines[1:4] {
		var m struct {
			Shard int `json:"shard"`
		}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i+2, err, line)
		}
		if m.Shard != wantShards[i] {
			t.Errorf("line %d shard = %d, want %d: %s", i+2, m.Shard, wantShards[i], line)
		}
	}
}
