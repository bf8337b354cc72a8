package tracing

import (
	"net/http"
	"strconv"
)

// Handler serves the tracer's retained traces for download:
//
//	GET /debug/trace            last 64 traces, Chrome trace_event JSON
//	GET /debug/trace?n=200      last 200 traces
//
// Chrome output loads directly in chrome://tracing or Perfetto. A nil
// tracer yields 404 (tracing disabled), so commands can mount the
// endpoint unconditionally.
func Handler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if t == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		n := 64
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 1 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
			n = v
		}
		traces := t.Traces(n)
		switch r.URL.Query().Get("format") {
		case "", "chrome":
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			w.Header().Set("Content-Disposition", `attachment; filename="buffer-trace.json"`)
			if err := WriteChromeTrace(w, traces); err != nil {
				return // client gone; nothing useful to do
			}
		default:
			http.Error(w, "bad format (want chrome)", http.StatusBadRequest)
		}
	})
}
