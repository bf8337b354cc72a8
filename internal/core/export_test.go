package core

// CandidateSize returns the fixed candidate-set size.
func (p *SLRU) CandidateSize() int { return p.candSize }

// Len returns the number of tracked frames.
func (p *Spatial) Len() int { return p.h.Len() }
