package live_test

import (
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

// TestShadowGaugesExposed pins the metric families that bufserve's
// TestServeShardedAsync looks for on /metrics: labeled spatialbuf_shadow_hit_ratio per shadow and the
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
