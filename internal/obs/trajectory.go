package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// TrajectoryRecorder captures the ASB candidate-set trajectory (the
// Fig. 14 series) from the event stream: one (ref, candidate) sample per
// Adapt event, ref being the request count the engine stamped on it. It
// replaces the bespoke OnAdapt callback plumbing that
// experiment.RunAdaptation and cmd/asbviz used to carry.
//
// TrajectoryRecorder implements Sink; every other event is ignored. Not
// safe for concurrent use.
type TrajectoryRecorder struct {
	NopSink

	// Ref[i] is the request count at which sample i was taken (AdaptEvent.Ref);
	// Cand[i] the candidate-set size after that adaptation event.
	Ref  []int
	Cand []int
}

// NewTrajectoryRecorder returns an empty recorder.
func NewTrajectoryRecorder() *TrajectoryRecorder { return &TrajectoryRecorder{} }

// Adapt implements Sink.
func (r *TrajectoryRecorder) Adapt(e AdaptEvent) {
	r.Ref = append(r.Ref, int(e.Ref))
	r.Cand = append(r.Cand, e.NewC)
}

// Len returns the number of recorded samples.
func (r *TrajectoryRecorder) Len() int { return len(r.Ref) }

// WriteTrajectoryCSV writes a candidate-set trajectory as CSV with the
// header "ref,candidate" — the interchange format between spatialbench
// (producer) and asbviz (consumer).
func WriteTrajectoryCSV(w io.Writer, refs, cands []int) error {
	if len(refs) != len(cands) {
		return fmt.Errorf("obs: trajectory length mismatch: %d refs, %d candidates", len(refs), len(cands))
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("ref,candidate\n"); err != nil {
		return err
	}
	var buf []byte
	for i := range refs {
		buf = strconv.AppendInt(buf[:0], int64(refs[i]), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(cands[i]), 10)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrajectoryCSV parses a c-trajectory CSV (as written by
// WriteTrajectoryCSV, cmd/asbviz -csv or cmd/spatialbench -ctraj).
// The header line is required; blank lines and lines starting with '#'
// are skipped.
func ReadTrajectoryCSV(rd io.Reader) (refs, cands []int, err error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	sawHeader := false
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if !sawHeader {
			if text != "ref,candidate" {
				return nil, nil, fmt.Errorf("obs: line %d: want header %q, got %q", line, "ref,candidate", text)
			}
			sawHeader = true
			continue
		}
		ref, cand, ok := strings.Cut(text, ",")
		if !ok {
			return nil, nil, fmt.Errorf("obs: line %d: not a ref,candidate pair: %q", line, text)
		}
		r, err := strconv.Atoi(strings.TrimSpace(ref))
		if err != nil {
			return nil, nil, fmt.Errorf("obs: line %d: bad ref: %w", line, err)
		}
		c, err := strconv.Atoi(strings.TrimSpace(cand))
		if err != nil {
			return nil, nil, fmt.Errorf("obs: line %d: bad candidate: %w", line, err)
		}
		refs = append(refs, r)
		cands = append(cands, c)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return refs, cands, nil
}
