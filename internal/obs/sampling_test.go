package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestSamplingSinkDeterministic(t *testing.T) {
	rec := &recordingSink{}
	s := NewSamplingSink(rec, 3)
	for i := 0; i < 10; i++ {
		s.Request(RequestEvent{Page: 1})
	}
	// Events 1, 4, 7, 10 are forwarded.
	if rec.req != 4 {
		t.Errorf("forwarded %d of 10 requests at 1-in-3, want 4", rec.req)
	}
	// Non-request events pass through unconditionally.
	s.Eviction(EvictionEvent{})
	s.OverflowPromotion(OverflowPromotionEvent{})
	s.Adapt(AdaptEvent{})
	if rec.evict != 1 || rec.promote != 1 || rec.adapt != 1 {
		t.Errorf("pass-through events: %+v", *rec)
	}
	if seen := s.(*SamplingSink).Seen(); seen != 10 {
		t.Errorf("Seen() = %d, want 10", seen)
	}
}

func TestSamplingSinkDegenerateRates(t *testing.T) {
	rec := &recordingSink{}
	if s := NewSamplingSink(rec, 1); s != Sink(rec) {
		t.Error("1-in-1 sampling should return the sink unchanged")
	}
	if s := NewSamplingSink(rec, 0); s != Sink(rec) {
		t.Error("nonsense rate should return the sink unchanged")
	}
	if _, nop := NewSamplingSink(nil, 5).(NopSink); !nop {
		t.Error("nil downstream should yield NopSink")
	}
}

// TestMarkFlushes asserts the satellite contract: a reader of the
// underlying writer observes the mark line (and everything emitted
// before it) immediately after Mark returns, without an explicit Flush.
func TestMarkFlushes(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.Request(RequestEvent{Page: 1, Hit: true})
	if buf.Len() != 0 {
		t.Fatal("request line should still be buffered (precondition)")
	}
	s.Mark("combination 1")
	out := buf.String()
	if !strings.Contains(out, `"t":"req"`) || !strings.Contains(out, `"label":"combination 1"`) {
		t.Errorf("post-Mark read missed lines:\n%s", out)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestTeePropagatesLatency(t *testing.T) {
	var h Histogram
	rec := &recordingSink{}
	tee := Tee(rec, &h)
	lr, ok := tee.(LatencyRecorder)
	if !ok {
		t.Fatal("Tee with a LatencyRecorder member must implement LatencyRecorder")
	}
	lr.RecordLatency(123, 5)
	if snap := h.Snapshot(); snap.Count != 5 || snap.Sum != 5*123 {
		t.Errorf("histogram behind the tee: count %d sum %d, want the weighted sample 5 × 123", snap.Count, snap.Sum)
	}
	// A tee of latency-blind sinks must NOT advertise the interface, or
	// the manager would time requests for nothing.
	if _, ok := Tee(rec, &recordingSink{}).(LatencyRecorder); ok {
		t.Error("Tee of latency-blind sinks should not implement LatencyRecorder")
	}
}
