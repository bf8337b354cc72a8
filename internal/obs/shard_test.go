package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// latencySink records events and latencies, for TagShard pass-through
// checks.
type latencySink struct {
	recordingSink
	latencies []int64
	weights   []uint64
}

func (l *latencySink) RecordLatency(ns int64, weight uint64) {
	l.latencies = append(l.latencies, ns)
	l.weights = append(l.weights, weight)
}

func TestTagShardRewritesEvents(t *testing.T) {
	rec := &recordingSink{}
	s := TagShard(rec, 3)

	s.Request(RequestEvent{Page: 1, Hit: true})
	if e := rec.last.(RequestEvent); e.Shard != 3 || e.Page != 1 || !e.Hit {
		t.Errorf("request = %+v, want shard 3 with fields intact", e)
	}
	s.Eviction(EvictionEvent{Page: 9, Reason: ReasonSLRU})
	if e := rec.last.(EvictionEvent); e.Shard != 3 || e.Page != 9 || e.Reason != ReasonSLRU {
		t.Errorf("eviction = %+v, want shard 3 with fields intact", e)
	}
	s.OverflowPromotion(OverflowPromotionEvent{Page: 7})
	if e := rec.last.(OverflowPromotionEvent); e.Shard != 3 || e.Page != 7 {
		t.Errorf("promotion = %+v, want shard 3", e)
	}
	s.Adapt(AdaptEvent{OldC: 4, NewC: 5})
	if e := rec.last.(AdaptEvent); e.Shard != 3 || e.OldC != 4 || e.NewC != 5 {
		t.Errorf("adapt = %+v, want shard 3", e)
	}
	if rec.req != 1 || rec.evict != 1 || rec.promote != 1 || rec.adapt != 1 {
		t.Errorf("event counts: %+v", *rec)
	}
}

func TestTagShardCollapsesNop(t *testing.T) {
	// nil and NopSink stay cost-free: no wrapper is allocated.
	if _, ok := TagShard(nil, 2).(NopSink); !ok {
		t.Error("TagShard(nil) should be NopSink")
	}
	if _, ok := TagShard(NopSink{}, 2).(NopSink); !ok {
		t.Error("TagShard(NopSink) should stay NopSink")
	}
}

func TestTagShardPreservesLatencyRecorder(t *testing.T) {
	// A latency-recording sink must keep recording through the tagger
	// (the manager decides whether to time requests by interface probe).
	ls := &latencySink{}
	tagged := TagShard(ls, 1)
	lr, ok := tagged.(LatencyRecorder)
	if !ok {
		t.Fatal("tagged latency sink lost LatencyRecorder")
	}
	lr.RecordLatency(42, 7)
	if len(ls.latencies) != 1 || ls.latencies[0] != 42 || ls.weights[0] != 7 {
		t.Errorf("latencies = %v weights = %v, want [42] [7]", ls.latencies, ls.weights)
	}
	tagged.Request(RequestEvent{Page: 5})
	if e := ls.last.(RequestEvent); e.Shard != 1 {
		t.Errorf("shard = %d, want 1", e.Shard)
	}

	// A latency-blind sink must NOT grow a LatencyRecorder by tagging,
	// or the manager would start timing requests nobody records.
	rec := &recordingSink{}
	if _, ok := TagShard(rec, 1).(LatencyRecorder); ok {
		t.Error("tagging a latency-blind sink must not add LatencyRecorder")
	}
}

// TestJSONLShardField pins the wire format: events from shard 0 (and all
// unsharded pools) serialize exactly as before — no "shard" key — while
// nonzero shards carry it, so existing JSONL consumers keep working.
func TestJSONLShardField(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.Request(RequestEvent{Page: 12, QueryID: 3, Hit: true})
	s.Request(RequestEvent{Page: 12, QueryID: 3, Hit: true, Shard: 2})
	s.Eviction(EvictionEvent{Page: 9, Reason: ReasonLRU, Shard: 5})
	s.OverflowPromotion(OverflowPromotionEvent{Page: 7, Shard: 1})
	s.Adapt(AdaptEvent{OldC: 3, NewC: 4, Shard: 7})
	s.Eviction(EvictionEvent{Page: 8, Reason: ReasonLRU})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("got %d lines, want 6:\n%s", len(lines), buf.String())
	}
	if strings.Contains(lines[0], "shard") {
		t.Errorf("shard-0 request must omit the shard key: %s", lines[0])
	}
	if strings.Contains(lines[5], "shard") {
		t.Errorf("shard-0 eviction must omit the shard key: %s", lines[5])
	}
	wantShards := []int{2, 5, 1, 7}
	for i, line := range lines[1:5] {
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
