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
	s.Adapt(AdaptEvent{})
	if rec.evict != 1 || rec.adapt != 1 {
		t.Errorf("pass-through events: %+v", *rec)
	}
	if seen := s.(*samplingSink).seen.Load(); seen != 10 {
		t.Errorf("seen = %d, want 10", seen)
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
	s := newJSONLSink(&buf)
	s.Request(RequestEvent{Page: 1, Hit: true})
	if buf.Len() != 0 {
		t.Fatal("request line should still be buffered (precondition)")
	}
	s.Mark("combination 1")
	out := buf.String()
	if !strings.Contains(out, `"t":"req"`) || !strings.Contains(out, `"label":"combination 1"`) {
		t.Errorf("post-Mark read missed lines:\n%s", out)
	}
	if err := s.err; err != nil {
		t.Fatal(err)
	}
}

// requestLog reads requests only.
type requestLog struct{ recordingSink }

func (*requestLog) RequestsOnly() bool { return true }

// TestRouteSplitsRequestConsumers: Route, applied to what an engine is
// given, sends requests to every consumer of a tee, nested tees
// included, and decisions only to those that are not request-only; a
// kind no consumer reads routes to nil, so the engine builds no such
// event.
func TestRouteSplitsRequestConsumers(t *testing.T) {
	rec, req := &recordingSink{}, &requestLog{}
	tee := Tee(NopSink{}, Tee(rec, req))
	tee.Request(RequestEvent{})
	tee.Eviction(EvictionEvent{})
	if rec.req != 1 || rec.evict != 1 || req.req != 1 || req.evict != 1 {
		t.Errorf("called directly, the tee reached %+v and %+v, want one request and one eviction each", *rec, req.recordingSink)
	}

	requests, decisions := Route(tee)
	if m, ok := requests.(multiSink); !ok || len(m) != 2 {
		t.Errorf("requests go to %T %v, want both consumers", requests, requests)
	}
	if decisions != Sink(rec) {
		t.Errorf("decisions go to %T, want the consumer that reads them alone", decisions)
	}
	if requests, decisions := Route(req); requests != Sink(req) || decisions != nil {
		t.Errorf("a request consumer routes to %v and %v, want requests only", requests, decisions)
	}
	for _, s := range []Sink{nil, NopSink{}, Tee()} {
		if requests, decisions := Route(s); requests != nil || decisions != nil {
			t.Errorf("Route(%T) = %v, %v, want no consumer", s, requests, decisions)
		}
	}
}
