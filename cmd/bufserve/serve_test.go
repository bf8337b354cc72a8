package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// boot runs bufserve in process on 127.0.0.1:0, replaying U-P on a
// 20 000-object database with args, and returns its base URL. The test's
// cleanup stops it and fails the test if serve returned an error.
func boot(t *testing.T, args ...string) string {
	t.Helper()
	fs := flag.NewFlagSet("bufserve", flag.ContinueOnError)
	cfg := newConfig(fs)
	if err := fs.Parse(append([]string{"-addr", "127.0.0.1:0", "-objects", "20000", "-set", "U-P"}, args...)); err != nil {
		t.Fatal(err)
	}
	ln, comp, err := listen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, cfg, comp, ln) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("bufserve %v: %v", args, err)
		}
	})
	return "http://" + ln.Addr().String()
}

// get fetches url and returns the status code and the body.
func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// sample returns the value of the series (name and labels, as exposed)
// in the exposition text, and whether it is there.
func sample(text, series string) (float64, bool) {
	for sc := bufio.NewScanner(strings.NewReader(text)); sc.Scan(); {
		if v, ok := strings.CutPrefix(sc.Text(), series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			return f, err == nil
		}
	}
	return 0, false
}

// waitMetrics scrapes base's /metrics until every one of series is
// nonzero, and returns that scrape.
func waitMetrics(t *testing.T, base string, series ...string) string {
	t.Helper()
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(20 * time.Millisecond) {
		code, text := get(t, base+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("/metrics: status %d", code)
		}
		all := true
		for _, s := range series {
			v, ok := sample(text, s)
			all = all && ok && v != 0
		}
		if all {
			return text
		}
		if time.Now().After(deadline) {
			t.Fatalf("/metrics: %v not all nonzero after a minute", series)
		}
	}
}

// hasLine fails the test unless text has a line that starts with prefix.
func hasLine(t *testing.T, text, prefix string) {
	t.Helper()
	if !strings.HasPrefix(text, prefix) && !strings.Contains(text, "\n"+prefix) {
		t.Errorf("/metrics has no line starting %q", prefix)
	}
}

// wantStatus fails the test unless base+path answers code.
func wantStatus(t *testing.T, base, path string, code int) {
	t.Helper()
	if got, _ := get(t, base+path); got != code {
		t.Errorf("%s: status %d, want %d", path, got, code)
	}
}

// TestServeLocked boots ASB on a locked pool with two workers: /healthz
// answers ok, /metrics counts requests and serves the ASB gauges and the
// latency histogram, and five scrapes taken while the workers run (which
// the race detector watches) see the request counter never fall. /
// serves the dashboard, which fetches /metrics, and /metrics is the one
// live export: /vars answers 404.
func TestServeLocked(t *testing.T) {
	base := boot(t, "-policy", "ASB", "-pool", "locked", "-workers", "2")
	if code, body := get(t, base+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz: status %d, body %q", code, body)
	}
	last := 0.0
	for i := 0; i < 5; i++ {
		text := waitMetrics(t, base, "spatialbuf_requests_total")
		reqs, _ := sample(text, "spatialbuf_requests_total")
		if reqs < last {
			t.Errorf("scrape %d: spatialbuf_requests_total fell from %v to %v", i, last, reqs)
		}
		last = reqs
		hasLine(t, text, "spatialbuf_asb_candidate_size ")
		hasLine(t, text, "spatialbuf_request_latency_seconds_bucket")
	}
	wantStatus(t, base, "/vars", http.StatusNotFound)
	if code, body := get(t, base+"/"); code != http.StatusOK || !strings.Contains(body, `fetch("/metrics")`) {
		t.Errorf("/: status %d, and the dashboard does not fetch /metrics", code)
	}
}

// TestServeClockEvictionReasons: the engine reports every policy's
// evictions, so CLOCK's (which reported none while policies did the
// reporting) are counted by reason.
func TestServeClockEvictionReasons(t *testing.T) {
	base := boot(t, "-policy", "CLOCK", "-pool", "locked")
	waitMetrics(t, base, `spatialbuf_evictions_total{reason="clock"}`)
}

// TestServeShardedAsync boots ASB on an async pool of four shards with
// the shadow profiler and dense trace sampling. /metrics has the shard
// count, each shard's resident and ASB gauges, the write-back queue's
// and the in-flight reads' gauges, the lock profiler's per-shard
// acquisitions, and exactly six shadow hit ratios (three what-if
// policies and three more ladder rungs of ASB; its rung 1 is the ASB
// shadow) beside the regret. /debug/trace serves Chrome trace-event JSON
// with root Get spans, and chrome is its one format. The event streams
// /metrics replaced answer 404.
func TestServeShardedAsync(t *testing.T) {
	base := boot(t, "-policy", "ASB", "-pool", "async,shards=4",
		"-shadow", "LRU,SLRU 50%,ASB", "-shadow-ladder", "0.5,1,2,4", "-trace-sample", "16")
	text := waitMetrics(t, base, "spatialbuf_requests_total", "spatialbuf_trace_requests_seen_total")
	if n, ok := sample(text, "spatialbuf_shards"); !ok || n != 4 {
		t.Errorf("spatialbuf_shards is %v (served: %v), want 4", n, ok)
	}
	for s := 0; s < 4; s++ {
		shard := `{shard="` + strconv.Itoa(s) + `"} `
		hasLine(t, text, "spatialbuf_shard_resident_pages"+shard)
		hasLine(t, text, "spatialbuf_shard_asb_candidate_size"+shard)
	}
	for _, prefix := range []string{
		"spatialbuf_asb_candidate_size ",
		"spatialbuf_shadow_hit_ratio{policy=",
		`spatialbuf_shadow_hit_ratio{policy="SLRU 50%"`,
		"spatialbuf_shadow_regret ",
		"spatialbuf_writeback_queue_capacity ",
		"spatialbuf_inflight_reads ",
		`spatialbuf_shard_lock_acquisitions_total{shard="0"} `,
	} {
		hasLine(t, text, prefix)
	}
	if n := strings.Count(text, "\nspatialbuf_shadow_hit_ratio{"); n != 6 {
		t.Errorf("/metrics has %d spatialbuf_shadow_hit_ratio series, want 6", n)
	}
	for _, stream := range []string{"ctraj", "shadow"} {
		wantStatus(t, base, "/events/"+stream, http.StatusNotFound)
	}

	// A span as /debug/trace serves it: the fields read are the ones
	// every span must have.
	type span struct {
		Name string
		Ph   string
		Pid  *int32
		Ts   *float64
		Dur  *float64
	}
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(20 * time.Millisecond) {
		code, body := get(t, base+"/debug/trace?n=64")
		var trace struct{ TraceEvents []span }
		if err := json.Unmarshal([]byte(body), &trace); code != http.StatusOK || err != nil {
			t.Fatalf("/debug/trace: status %d, %v", code, err)
		}
		spans, roots := 0, 0
		for _, e := range trace.TraceEvents {
			if e.Ph != "X" {
				continue
			}
			spans++
			if e.Name == "Get" {
				roots++
			}
			if e.Pid == nil || e.Ts == nil || e.Dur == nil {
				t.Fatalf("/debug/trace: span %q lacks pid, ts or dur", e.Name)
			}
		}
		if spans > 0 && roots > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/debug/trace: %d spans, %d root Get spans after a minute", spans, roots)
		}
	}
	if code, body := get(t, base+"/debug/trace?n=8&format=chrome"); code != http.StatusOK || !json.Valid([]byte(body)) {
		t.Errorf("/debug/trace?format=chrome: status %d, valid JSON %v", code, json.Valid([]byte(body)))
	}
	wantStatus(t, base, "/debug/trace?format=jsonl", http.StatusBadRequest)
}
