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

// registryLog is a SignalRegistry that also counts any event it gets.
type registryLog struct {
	recordingSink
	blocks []*Signals
}

func (r *registryLog) Register(b *Signals) { r.blocks = append(r.blocks, b) }

// requestLog reads requests only.
type requestLog struct{ recordingSink }

func (*requestLog) RequestsOnly() bool { return true }

// TestTeeRoutesRegistriesApart: Tee keeps a signal registry out of its
// fan-out — called directly, the tee reaches the consumers alone — and
// Route hands it to the engine as a registry, nested tees included; a
// request-only consumer gets the requests and no decision. A tee of consumers alone has no registry, so
// an engine keeps no signals and reads no clock for it.
func TestTeeRoutesRegistriesApart(t *testing.T) {
	reg, rec, req := &registryLog{}, &recordingSink{}, &requestLog{}
	tee := Tee(reg, Tee(rec, req))
	tee.Request(RequestEvent{})
	tee.Eviction(EvictionEvent{})
	if reg.req+reg.evict != 0 || rec.req != 1 || rec.evict != 1 {
		t.Errorf("registry saw %d events, consumer %d requests and %d evictions; want 0, 1, 1", reg.req+reg.evict, rec.req, rec.evict)
	}

	requests, decisions, regs := Route(tee)
	if len(regs) != 1 || regs[0] != SignalRegistry(reg) {
		t.Errorf("registries %v, want the one registry", regs)
	}
	if m, ok := requests.(multiSink); !ok || len(m) != 2 {
		t.Errorf("requests go to %T %v, want both consumers", requests, requests)
	}
	if decisions != Sink(rec) {
		t.Errorf("decisions go to %T, want the consumer that reads them alone", decisions)
	}
	if requests, decisions, regs := Route(Tee(reg)); requests != nil || decisions != nil || len(regs) != 1 {
		t.Errorf("a registry alone routes to %v, %v, %v, want no consumer", requests, decisions, regs)
	}
	if _, _, regs := Route(Tee(rec, req)); len(regs) != 0 {
		t.Errorf("a tee of consumers has registries %v", regs)
	}
	if requests, decisions, _ := Route(req); requests != Sink(req) || decisions != nil {
		t.Errorf("a request consumer routes to %v and %v, want requests only", requests, decisions)
	}
}
