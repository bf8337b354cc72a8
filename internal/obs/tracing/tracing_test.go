package tracing

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// record completes one fully-populated fake request trace.
func record(t *Tracer, shard int, hit bool) *Active {
	a := t.StartRequest(KindGet, 42, 7, shard, 123)
	if a == nil {
		return nil
	}
	v := a.Start(KindVictim)
	sp := a.At(v)
	sp.Reason = "slru"
	sp.CritKind = "A"
	sp.CritWin = 0.25
	sp.Rank = 3
	a.End(v)
	r := a.Start(KindStoreRead)
	rp := a.At(r)
	rp.Page = 42
	rp.Bytes = 4096
	a.End(r)
	a.Finish(hit, false)
	return a
}

func TestSamplingExact(t *testing.T) {
	tr := NewTracer(4, 1, 64)
	sampled := 0
	for i := 0; i < 40; i++ {
		if a := tr.StartRequest(KindGet, 1, 0, 0, 0); a != nil {
			sampled++
			a.Finish(true, false)
		}
	}
	if sampled != 10 {
		t.Fatalf("sampled %d of 40 at 1-in-4, want 10", sampled)
	}
	if tr.Seen() != 40 {
		t.Fatalf("seen %d, want 40", tr.Seen())
	}
}

func TestSamplingExactConcurrent(t *testing.T) {
	tr := NewTracer(8, 4, 256)
	const goroutines, per = 8, 400
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if a := tr.StartRequest(KindGet, 1, 0, g%4, 0); a != nil {
					a.Finish(true, false)
				}
			}
		}(g)
	}
	wg.Wait()
	// The atomic sampling counter guarantees the exact global ratio no
	// matter how the emits interleave.
	if got, want := len(tr.Traces(0)), goroutines*per/8; got != want {
		t.Fatalf("retained %d traces, want %d", got, want)
	}
}

func TestSpanNesting(t *testing.T) {
	tr := NewTracer(1, 2, 8)
	record(tr, 1, false)
	traces := tr.Traces(0)
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	spans := traces[0]
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	root := spans[0]
	if root.Kind != KindGet || root.Parent != -1 || root.Shard != 1 {
		t.Fatalf("bad root span: %+v", root)
	}
	if root.LockWait != 123 || root.Page != 42 || root.QueryID != 7 {
		t.Fatalf("root payload lost: %+v", root)
	}
	if spans[1].Kind != KindVictim || spans[1].Parent != 0 {
		t.Fatalf("bad victim span: %+v", spans[1])
	}
	if spans[1].Reason != "slru" || spans[1].CritWin != 0.25 || spans[1].Rank != 3 {
		t.Fatalf("victim payload lost: %+v", spans[1])
	}
	if spans[2].Kind != KindStoreRead || spans[2].Parent != 0 || spans[2].Bytes != 4096 {
		t.Fatalf("bad store span: %+v", spans[2])
	}
	for _, sp := range spans {
		if sp.Trace != root.Trace {
			t.Fatalf("span trace ID %d != root %d", sp.Trace, root.Trace)
		}
	}
}

func TestRingWraps(t *testing.T) {
	tr := NewTracer(1, 1, 4)
	for i := 0; i < 10; i++ {
		a := tr.StartRequest(KindGet, 1, uint64(i), 0, 0)
		a.Finish(true, false)
	}
	traces := tr.Traces(0)
	if len(traces) != 4 {
		t.Fatalf("ring retained %d traces, want 4", len(traces))
	}
	// Oldest-first ordering of the newest four (queries 6..9).
	for i, trc := range traces {
		if want := uint64(6 + i); trc[0].QueryID != want {
			t.Fatalf("trace %d has query %d, want %d", i, trc[0].QueryID, want)
		}
	}
	if got := len(tr.Traces(2)); got != 2 {
		t.Fatalf("Traces(2) returned %d", got)
	}
}

func TestTraceSpanCap(t *testing.T) {
	tr := NewTracer(1, 1, 2)
	a := tr.StartRequest(KindFlush, 0, 0, 0, 0)
	for i := 0; i < maxSpansPerTrace+100; i++ {
		idx := a.Start(KindStoreWrite)
		a.At(idx).Bytes = 1 // must not panic for dropped spans
		a.End(idx)
	}
	a.Finish(false, false)
	spans := tr.Traces(0)[0]
	if len(spans) != maxSpansPerTrace {
		t.Fatalf("trace holds %d spans, want cap %d", len(spans), maxSpansPerTrace)
	}
}

func TestNilTracerAndActiveAreSafe(t *testing.T) {
	var tr *Tracer
	if a := tr.StartRequest(KindGet, 1, 0, 0, 0); a != nil {
		t.Fatal("nil tracer sampled a request")
	}
	if a := tr.StartOp(KindFlush, 0); a != nil {
		t.Fatal("nil tracer sampled an op")
	}
	if got := tr.Traces(10); got != nil {
		t.Fatalf("nil tracer returned traces: %v", got)
	}
	var a *Active
	if idx := a.Start(KindVictim); idx != -1 {
		t.Fatalf("nil Active Start returned %d", idx)
	}
	a.End(-1)
	a.Finish(false, false)
}

func TestUnsampledPathAllocFree(t *testing.T) {
	tr := NewTracer(1<<30, 1, 8)
	tr.StartRequest(KindGet, 1, 0, 0, 0) // consume the first (sampled) slot
	allocs := testing.AllocsPerRun(1000, func() {
		if a := tr.StartRequest(KindGet, 1, 0, 0, 0); a != nil {
			t.Fatal("sampled unexpectedly")
		}
	})
	if allocs != 0 {
		t.Fatalf("unsampled StartRequest allocates %.1f/op, want 0", allocs)
	}
}

func TestChromeExportValidJSON(t *testing.T) {
	tr := NewTracer(1, 2, 8)
	record(tr, 0, true)
	record(tr, 1, false)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Traces(0)); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, buf.String())
	}
	// 2 traces × 3 spans + 2 process_name metadata events.
	if len(doc.TraceEvents) != 8 {
		t.Fatalf("got %d events, want 8", len(doc.TraceEvents))
	}
	kinds := map[string]int{}
	for _, e := range doc.TraceEvents {
		kinds[e.Name]++
		if e.Ph != "X" && e.Ph != "M" {
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	if kinds["Get"] != 2 || kinds["victim-select"] != 2 || kinds["store.Read"] != 2 || kinds["process_name"] != 2 {
		t.Fatalf("unexpected event mix: %v", kinds)
	}
}

// TestHandlerFormats: Chrome JSON is the one span export; any other
// format is refused.
func TestHandlerFormats(t *testing.T) {
	tr := NewTracer(1, 1, 8)
	record(tr, 0, true)
	for _, c := range []struct {
		query string
		code  int
	}{{"", http.StatusOK}, {"?format=chrome", http.StatusOK}, {"?format=jsonl", http.StatusBadRequest}} {
		rec := httptest.NewRecorder()
		Handler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace"+c.query, nil))
		if rec.Code != c.code {
			t.Fatalf("%q: status %d, want %d: %s", c.query, rec.Code, c.code, rec.Body)
		}
		if c.code == http.StatusOK && !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%q: body is not JSON", c.query)
		}
	}
}

func TestContention(t *testing.T) {
	c := NewContention(3)
	if c.Shards() != 3 {
		t.Fatalf("Shards() = %d", c.Shards())
	}
	c.BeginWait(1)
	if c.Waiters(1) != 1 {
		t.Fatalf("Waiters = %d, want 1", c.Waiters(1))
	}
	c.EndWait(1, 500)
	c.BeginWait(1)
	c.EndWait(1, 250)
	if c.Waiters(1) != 0 || c.WaitNanos(1) != 750 || c.Acquisitions(1) != 2 {
		t.Fatalf("shard 1 counters: waiters=%d wait=%d acq=%d",
			c.Waiters(1), c.WaitNanos(1), c.Acquisitions(1))
	}
	c.BeginWait(0)
	c.EndWait(0, 50)
	if c.WaitNanos(0) != 50 || c.WaitNanos(1) != 750 {
		t.Fatalf("WaitNanos = %d/%d, want 50/750", c.WaitNanos(0), c.WaitNanos(1))
	}
	// An acquisition that found the lock free counts, and nothing else.
	c.Uncontended(1)
	if c.Waiters(1) != 0 || c.WaitNanos(1) != 750 || c.Acquisitions(1) != 3 {
		t.Fatalf("shard 1 after an uncontended acquisition: waiters=%d wait=%d acq=%d",
			c.Waiters(1), c.WaitNanos(1), c.Acquisitions(1))
	}
}

func TestContentionConcurrent(t *testing.T) {
	c := NewContention(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s := (g + i) % 4
				c.BeginWait(s)
				c.EndWait(s, 1)
			}
		}(g)
	}
	wg.Wait()
	var total uint64
	var waited int64
	for s := 0; s < 4; s++ {
		if c.Waiters(s) != 0 {
			t.Fatalf("shard %d has %d leftover waiters", s, c.Waiters(s))
		}
		total += c.Acquisitions(s)
		waited += c.WaitNanos(s)
	}
	if total != 8000 {
		t.Fatalf("acquisitions %d, want 8000", total)
	}
	if waited != 8000 {
		t.Fatalf("summed WaitNanos = %d, want 8000", waited)
	}
}

// BenchmarkStartRequestUnsampled is the disabled-path cost every buffer
// request pays when a tracer is attached: one atomic add, no
// allocations.
func BenchmarkStartRequestUnsampled(b *testing.B) {
	tr := NewTracer(1<<30, 1, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if a := tr.StartRequest(KindGet, 1, 0, 0, 0); a != nil {
			a.Finish(true, false)
		}
	}
}

// BenchmarkSampledTrace measures the full cost of one sampled request
// trace (pool get, three spans, publish, pool put).
func BenchmarkSampledTrace(b *testing.B) {
	tr := NewTracer(1, 1, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		record(tr, 0, true)
	}
}
