package live_test

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/obs/shadow"
	"repro/internal/page"
)

func testBank(t *testing.T) *shadow.Bank {
	t.Helper()
	specs := shadow.Specs("LRU", 8, []string{"LRU", "SLRU 50%"}, []float64{0.5, 1})
	bank, err := shadow.NewBank(specs, core.Resolver, 0)
	if err != nil {
		t.Fatal(err)
	}
	return bank
}

// TestShadowGaugesExposed pins the metric families the CI smoke job
// greps for: labeled spatialbuf_shadow_hit_ratio per shadow and the
// unlabeled regret gauge.
func TestShadowGaugesExposed(t *testing.T) {
	svc := live.NewService()
	bank := testBank(t)
	svc.AddShadowGauges(bank)
	for i := 0; i < 20; i++ {
		bank.Request(obs.RequestEvent{Page: page.ID(i%4 + 1), Hit: i >= 4, Meta: page.Meta{}})
	}

	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	body := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		`spatialbuf_shadow_hit_ratio{policy="LRU",capacity="8"}`,
		`spatialbuf_shadow_hit_ratio{policy="LRU",capacity="4"}`,
		`spatialbuf_shadow_hit_ratio{policy="SLRU 50%",capacity="8"}`,
		`spatialbuf_shadow_window_hit_ratio{policy="LRU",capacity="8"}`,
		`spatialbuf_shadow_hits_total{policy="LRU",capacity="8"}`,
		`spatialbuf_shadow_misses_total{policy="LRU",capacity="8"}`,
		"spatialbuf_shadow_regret ",
		"spatialbuf_shadow_requests_total 20",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestShadowSSE checks /events/shadow: 404 without a bank, an immediate
// well-formed snapshot with one.
func TestShadowSSE(t *testing.T) {
	svc := live.NewService()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/events/shadow")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("no-bank status = %d, want 404", resp.StatusCode)
	}

	bank := testBank(t)
	svc.AddShadowGauges(bank)
	bank.Request(obs.RequestEvent{Page: 1, Hit: true, Meta: page.Meta{}})
	resp, err = http.Get(ts.URL + "/events/shadow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	scanner := bufio.NewScanner(resp.Body)
	var payload struct {
		Regret       float64       `json:"regret"`
		RealRequests uint64        `json:"real_requests"`
		Shadows      []shadow.Stat `json:"shadows"`
	}
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &payload); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		break
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if payload.RealRequests != 1 || len(payload.Shadows) != 3 {
		t.Errorf("SSE snapshot = %+v, want 1 request over 3 shadows", payload)
	}
}

// TestShadowDashboardPanel checks the dashboard carries the shadow
// table wired to the SSE stream.
func TestShadowDashboardPanel(t *testing.T) {
	svc := live.NewService()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	body := get(t, ts.URL+"/")
	if !strings.Contains(body, "/events/shadow") || !strings.Contains(body, `id="shadows"`) {
		t.Error("dashboard missing the shadow-cache panel")
	}
}
