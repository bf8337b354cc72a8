package obs

// WindowTracker aggregates Request events into fixed-size windows of
// consecutive requests and keeps the most recent windows in a ring. It
// turns the cumulative hit ratio of buffer.Stats into a *windowed* hit
// ratio, which is what makes workload-shift experiments (the Fig. 12–14
// mixed workloads) legible mid-run: a policy adapting to a new phase
// shows up as a windowed-ratio transient that the cumulative ratio
// smears out.
//
// WindowTracker implements Sink; non-Request events are ignored. It is
// not safe for concurrent use.
type WindowTracker struct {
	NopSink

	perWindow uint64
	ring      []WindowStats
	completed uint64 // windows closed since creation
	cur       WindowStats
}

// WindowStats are the aggregates of one window of consecutive requests.
type WindowStats struct {
	Requests uint64
	Hits     uint64
}

// HitRatio returns Hits/Requests for the window, or 0 for an empty one.
func (w WindowStats) HitRatio() float64 {
	if w.Requests == 0 {
		return 0
	}
	return float64(w.Hits) / float64(w.Requests)
}

// NewWindowTracker returns a tracker aggregating perWindow requests per
// window and retaining the keep most recent completed windows. Both must
// be ≥ 1.
func NewWindowTracker(perWindow, keep int) *WindowTracker {
	perWindow, keep = max(perWindow, 1), max(keep, 1)
	return &WindowTracker{
		perWindow: uint64(perWindow),
		ring:      make([]WindowStats, 0, keep),
	}
}

// Request implements Sink.
func (t *WindowTracker) Request(e RequestEvent) {
	t.cur.Requests++
	if e.Hit {
		t.cur.Hits++
	}
	if t.cur.Requests >= t.perWindow {
		t.close()
	}
}

// close pushes the current window into the ring, overwriting the oldest
// retained window once the ring is full.
func (t *WindowTracker) close() {
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, t.cur)
	} else {
		t.ring[t.completed%uint64(cap(t.ring))] = t.cur
	}
	t.completed++
	t.cur = WindowStats{}
}

// WindowSize returns the number of requests per window.
func (t *WindowTracker) WindowSize() int { return int(t.perWindow) }

// Current returns the still-open window (fewer than WindowSize requests).
func (t *WindowTracker) Current() WindowStats { return t.cur }

// Windows returns the retained completed windows, oldest first. The
// returned slice is freshly allocated.
func (t *WindowTracker) Windows() []WindowStats {
	n := len(t.ring)
	out := make([]WindowStats, 0, n)
	if t.completed > uint64(cap(t.ring)) && n == cap(t.ring) {
		// Ring has wrapped: the oldest retained window sits at the next
		// overwrite position.
		start := int(t.completed % uint64(cap(t.ring)))
		out = append(out, t.ring[start:]...)
		out = append(out, t.ring[:start]...)
		return out
	}
	return append(out, t.ring...)
}

// HitRatios returns the hit ratio of each retained window, oldest first.
func (t *WindowTracker) HitRatios() []float64 {
	ws := t.Windows()
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = w.HitRatio()
	}
	return out
}
