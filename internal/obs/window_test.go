package obs

import "testing"

// fill pushes n requests with the given hit pattern into the tracker.
func fill(t *WindowTracker, n int, hit bool) {
	for i := 0; i < n; i++ {
		t.Request(RequestEvent{Hit: hit})
	}
}

func TestWindowTrackerBasics(t *testing.T) {
	w := NewWindowTracker(4, 3)
	if w.WindowSize() != 4 {
		t.Fatalf("window size = %d", w.WindowSize())
	}
	fill(w, 3, true)
	if len(w.Windows()) != 0 {
		t.Fatal("window closed early")
	}
	if cur := w.Current(); cur.Requests != 3 || cur.Hits != 3 {
		t.Fatalf("current = %+v", cur)
	}
	w.Request(RequestEvent{Hit: false})
	ws := w.Windows()
	if len(ws) != 1 || ws[0].Requests != 4 || ws[0].Hits != 3 {
		t.Fatalf("windows = %+v", ws)
	}
	if r := ws[0].HitRatio(); r != 0.75 {
		t.Errorf("hit ratio = %f, want 0.75", r)
	}
	if (WindowStats{}).HitRatio() != 0 {
		t.Error("empty window hit ratio should be 0")
	}
}

// TestWindowTrackerWrapAround closes more windows than the ring retains
// and checks that Windows() returns exactly the most recent ones, oldest
// first, with the overwritten windows gone.
func TestWindowTrackerWrapAround(t *testing.T) {
	w := NewWindowTracker(2, 3)
	// Close 8 windows with distinguishable hit counts: window i has
	// i%3 hits (0, 1 or 2 of its 2 requests).
	for i := 0; i < 8; i++ {
		hits := i % 3
		fill(w, hits, true)
		fill(w, 2-hits, false)
	}
	ws := w.Windows()
	if len(ws) != 3 {
		t.Fatalf("retained %d windows, want 3", len(ws))
	}
	// Windows 5, 6, 7 survive, with hit counts 5%3=2, 6%3=0, 7%3=1.
	wantHits := []uint64{2, 0, 1}
	for i, win := range ws {
		if win.Requests != 2 || win.Hits != wantHits[i] {
			t.Errorf("window %d = %+v, want %d hits", i, win, wantHits[i])
		}
	}
	ratios := w.HitRatios()
	if len(ratios) != 3 || ratios[0] != 1 || ratios[1] != 0 || ratios[2] != 0.5 {
		t.Errorf("hit ratios = %v", ratios)
	}
}

// TestWindowTrackerExactRingBoundary covers the edge where the number of
// completed windows equals the ring size: no wrap has happened yet and
// ordering must still be oldest-first.
func TestWindowTrackerExactRingBoundary(t *testing.T) {
	w := NewWindowTracker(1, 4)
	for i := 0; i < 4; i++ {
		w.Request(RequestEvent{Hit: i == 3})
	}
	ws := w.Windows()
	if len(ws) != 4 {
		t.Fatalf("retained %d windows, want 4", len(ws))
	}
	for i, win := range ws {
		wantHit := uint64(0)
		if i == 3 {
			wantHit = 1
		}
		if win.Hits != wantHit {
			t.Errorf("window %d hits = %d, want %d", i, win.Hits, wantHit)
		}
	}
	// One more closes window 4 and overwrites window 0.
	w.Request(RequestEvent{Hit: true})
	ws = w.Windows()
	if len(ws) != 4 || ws[0].Hits != 0 || ws[3].Hits != 1 {
		t.Errorf("after wrap: %+v", ws)
	}
}

func TestWindowTrackerClampsArguments(t *testing.T) {
	w := NewWindowTracker(0, -1)
	w.Request(RequestEvent{Hit: true})
	if w.WindowSize() != 1 {
		t.Error("perWindow should clamp to 1")
	}
	if len(w.Windows()) != 1 {
		t.Error("keep should clamp to 1")
	}
}
