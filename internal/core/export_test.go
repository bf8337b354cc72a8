package core

// CandidateSize returns the candidate-set size (MaxInt for the spatial
// policy, whose window spans the buffer).
func (p *SLRU) CandidateSize() int { return p.cand }

// Len returns the number of frames on the recency list and in the window.
func (p *SLRU) Len() (list, window int) { return p.order.Len(), p.win.Len() }
