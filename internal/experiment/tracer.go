package experiment

import (
	"sync"

	"repro/internal/obs/tracing"
)

// The process-wide experiment tracer: replays started while it is
// installed attach it to their buffer managers, so sampled references
// produce request-scoped span trees (victim selections, ASB adaptations,
// physical I/O).
var (
	tracerMu sync.RWMutex
	tracer   *tracing.Tracer
)

// SetTracer installs (or, with nil, removes) the process-wide tracer.
// A tracing.Tracer is safe for the parallel replay workers (sampling and
// publication are atomic; each worker's manager owns its own traces).
// Takes effect for replays started after the call.
func SetTracer(t *tracing.Tracer) {
	tracerMu.Lock()
	tracer = t
	tracerMu.Unlock()
}

// currentTracer returns the installed tracer, or nil.
func currentTracer() *tracing.Tracer {
	tracerMu.RLock()
	defer tracerMu.RUnlock()
	return tracer
}
