package live

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs/shadow"
)

// AddShadowGauges registers the shadow-cache profiler's metric families
// and enables the /events/shadow SSE stream. Per shadow cache (labeled
// policy + simulated capacity):
//
//	spatialbuf_shadow_hit_ratio         cumulative hit ratio
//	spatialbuf_shadow_window_hit_ratio  last completed rolling window
//	spatialbuf_shadow_hits_total        cumulative hits
//	spatialbuf_shadow_misses_total      cumulative misses
//
// plus the unlabeled pool-level pair:
//
//	spatialbuf_shadow_regret          real hit ratio − best shadow's
//	spatialbuf_shadow_requests_total  events observed by the bank
//
// All values read atomics; scraping never touches the bank's mutex.
func (s *Service) AddShadowGauges(b *shadow.Bank) {
	for _, c := range b.Shadows() {
		c := c
		labels := `policy="` + c.PolicyName() + `",capacity="` + strconv.Itoa(c.Capacity()) + `"`
		s.addLabeledGauge("spatialbuf_shadow_hit_ratio", labels,
			"Cumulative hit ratio of a shadow (ghost) cache simulating an alternative configuration.",
			func() float64 { return c.HitRatio() })
		s.addLabeledGauge("spatialbuf_shadow_window_hit_ratio", labels,
			"Hit ratio of the shadow cache's last completed rolling window.",
			func() float64 { return c.WindowHitRatio() })
		s.addLabeledGauge("spatialbuf_shadow_hits_total", labels,
			"Cumulative shadow-cache hits.",
			func() float64 { return float64(c.Hits()) })
		s.addLabeledGauge("spatialbuf_shadow_misses_total", labels,
			"Cumulative shadow-cache misses.",
			func() float64 { return float64(c.Misses()) })
	}
	s.AddGauge("spatialbuf_shadow_regret",
		"Real policy's hit ratio minus the best same-capacity shadow's; negative means a simulated configuration is winning.",
		func() float64 { return b.Regret() })
	s.AddGauge("spatialbuf_shadow_requests_total",
		"Request events observed by the shadow bank (after any sampling).",
		func() float64 { return float64(b.RealRequests()) })
	s.mu.Lock()
	s.shadowBank = b
	s.mu.Unlock()
}

// shadowBank returns the registered bank, nil when shadowing is off.
func (s *Service) getShadowBank() *shadow.Bank {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shadowBank
}

// shadowSample is one /events/shadow SSE payload: the regret headline
// plus every shadow's snapshot, in the bank's deterministic order.
type shadowSample struct {
	Regret       float64       `json:"regret"`
	RealHitRatio float64       `json:"real_hit_ratio"`
	RealRequests uint64        `json:"real_requests"`
	Shadows      []shadow.Stat `json:"shadows"`
}

// handleShadow streams the shadow bank's state as server-sent events,
// one JSON snapshot per second, until the client disconnects. 404 when
// no bank is attached (shadow profiling disabled).
func (s *Service) handleShadow(w http.ResponseWriter, r *http.Request) {
	b := s.getShadowBank()
	if b == nil {
		http.Error(w, "shadow profiling disabled", http.StatusNotFound)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	fmt.Fprintf(w, "retry: 2000\n\n")
	fl.Flush()

	tick := time.NewTicker(1 * time.Second)
	defer tick.Stop()
	for {
		sample := shadowSample{
			Regret:       b.Regret(),
			RealHitRatio: b.RealHitRatio(),
			RealRequests: b.RealRequests(),
			Shadows:      b.Stats(),
		}
		data, err := json.Marshal(sample)
		if err != nil {
			return
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
			return
		}
		fl.Flush()
		select {
		case <-tick.C:
		case <-r.Context().Done():
			return
		}
	}
}
