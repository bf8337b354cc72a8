package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// recordingSink counts events per kind for assertions.
type recordingSink struct {
	req, evict, adapt int
	last              any
}

func (r *recordingSink) Request(e RequestEvent) { r.req++; r.last = e }
func (r *recordingSink) Eviction(e EvictionEvent) {
	r.evict++
	r.last = e
}
func (r *recordingSink) Adapt(e AdaptEvent) { r.adapt++; r.last = e }

func TestTeeFansOutAndCollapses(t *testing.T) {
	a, b := &recordingSink{}, &recordingSink{}
	s := Tee(a, nil, NopSink{}, b)
	s.Request(RequestEvent{})
	s.Eviction(EvictionEvent{})
	s.Adapt(AdaptEvent{})
	for _, r := range []*recordingSink{a, b} {
		if r.req != 1 || r.evict != 1 || r.adapt != 1 {
			t.Errorf("sink saw %+v, want one of each", *r)
		}
	}
	if _, ok := Tee(nil, NopSink{}).(NopSink); !ok {
		t.Error("Tee of no real sinks should be a NopSink")
	}
	if got := Tee(a); got != Sink(a) {
		t.Error("Tee of one sink should be that sink")
	}
}

func TestJSONLSinkLines(t *testing.T) {
	var buf bytes.Buffer
	s := newJSONLSink(&buf)
	s.Request(RequestEvent{Page: 12, QueryID: 3, Hit: true})
	s.Eviction(EvictionEvent{Page: 9, Reason: ReasonSLRU, Criterion: 0.0125, LRURank: 4})
	s.Adapt(AdaptEvent{Page: 7, BetterSpatial: 2, BetterLRU: 5, OldC: 12, NewC: 13, Shard: 3})
	s.Mark(`phase "2"`)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), buf.String())
	}
	wantKinds := []string{"req", "evict", "adapt", "mark"}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i+1, err, line)
		}
		if m["t"] != wantKinds[i] {
			t.Errorf("line %d kind = %v, want %s", i+1, m["t"], wantKinds[i])
		}
	}
	// Spot-check field contents survived the hand-rolled encoding.
	var evict struct {
		Page   int     `json:"page"`
		Reason string  `json:"reason"`
		Crit   float64 `json:"crit"`
		Rank   int     `json:"rank"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &evict); err != nil {
		t.Fatal(err)
	}
	if evict.Page != 9 || evict.Reason != ReasonSLRU || evict.Crit != 0.0125 || evict.Rank != 4 {
		t.Errorf("evict line decoded to %+v", evict)
	}
	// The adapt line is the whole overflow hit: the promoted page, the
	// §4.2 signal and both sizes.
	var adapt struct{ Page, BS, BL, Old, New, Shard int }
	if err := json.Unmarshal([]byte(lines[2]), &adapt); err != nil {
		t.Fatal(err)
	}
	if want := (struct{ Page, BS, BL, Old, New, Shard int }{7, 2, 5, 12, 13, 3}); adapt != want {
		t.Errorf("adapt line %s decoded to %+v, want %+v", lines[2], adapt, want)
	}
	var mark struct {
		Label string `json:"label"`
	}
	if err := json.Unmarshal([]byte(lines[3]), &mark); err != nil {
		t.Fatal(err)
	}
	if mark.Label != `phase "2"` {
		t.Errorf("mark label = %q (quotes must be escaped)", mark.Label)
	}
}

func TestTrajectoryRecorderAndCSVRoundTrip(t *testing.T) {
	r := NewTrajectoryRecorder()
	r.Request(RequestEvent{Page: 1})
	r.Adapt(AdaptEvent{OldC: 4, NewC: 5, Ref: 10})
	r.Adapt(AdaptEvent{OldC: 5, NewC: 5, Ref: 15})

	if len(r.Ref) != 2 {
		t.Fatalf("len = %d, want 2", len(r.Ref))
	}
	if r.Ref[0] != 10 || r.Cand[0] != 5 || r.Ref[1] != 15 || r.Cand[1] != 5 {
		t.Errorf("samples = %v / %v", r.Ref, r.Cand)
	}

	var buf bytes.Buffer
	if err := WriteTrajectoryCSV(&buf, r.Ref, r.Cand); err != nil {
		t.Fatal(err)
	}
	refs, cands, err := ReadTrajectoryCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 2 || refs[0] != 10 || cands[1] != 5 {
		t.Errorf("round trip = %v / %v", refs, cands)
	}
}

func TestReadTrajectoryCSVErrors(t *testing.T) {
	cases := map[string]string{
		"missing header": "1,2\n",
		"bad pair":       "ref,candidate\nnope\n",
		"bad ref":        "ref,candidate\nx,2\n",
		"bad candidate":  "ref,candidate\n1,y\n",
	}
	for name, input := range cases {
		if _, _, err := ReadTrajectoryCSV(strings.NewReader(input)); err == nil {
			t.Errorf("%s: expected error for %q", name, input)
		}
	}
	// Comments and blank lines are tolerated.
	refs, _, err := ReadTrajectoryCSV(strings.NewReader("# produced by spatialbench\n\nref,candidate\n3,4\n"))
	if err != nil || len(refs) != 1 {
		t.Errorf("comment handling: refs=%v err=%v", refs, err)
	}
}

func TestWriteTrajectoryCSVLengthMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrajectoryCSV(&buf, []int{1, 2}, []int{1}); err == nil {
		t.Error("length mismatch should error")
	}
}
