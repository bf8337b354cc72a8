package obs

import (
	"bufio"
	"io"
	"strconv"
)

// JSONLSink serializes every event as one JSON object per line, for
// post-hoc analysis with standard tooling (jq, pandas). Lines are
// hand-assembled with strconv — the event structs are flat and fixed, so
// reflection buys nothing — and buffered; call Flush (or Close) before
// reading the output. Not safe for concurrent use.
//
// Line formats (field order is fixed):
//
//	{"t":"req","page":12,"q":3,"hit":true}
//	{"t":"evict","page":9,"reason":"slru","crit":0.01250,"rank":4}
//	{"t":"adapt","page":7,"bs":2,"bl":5,"old":12,"new":13}
//	{"t":"mark","label":"phase 2"}
//
// Misses that shared another request's physical read (singleflight or
// write-back-queue hits on an async pool) carry `,"coalesced":true`
// after the hit field; the field is omitted otherwise. Events from a
// sharded pool additionally carry `,"shard":N` before the closing
// brace; shard 0 (which includes every unsharded pool) is omitted, so
// single-pool streams keep the exact format above.
type JSONLSink struct {
	w   *bufio.Writer
	c   io.Closer // non-nil if the sink owns the underlying writer
	buf []byte
	err error
}

// newJSONLSink returns a sink writing to w. The caller owns w; call
// Flush before using its contents.
func newJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriterSize(w, 1<<16), buf: make([]byte, 0, 128)}
}

// NewJSONLSinkCloser is newJSONLSink for writers the sink should close
// (files): Close flushes and closes.
func NewJSONLSinkCloser(wc io.WriteCloser) *JSONLSink {
	s := newJSONLSink(wc)
	s.c = wc
	return s
}

// Flush writes buffered lines through to the underlying writer.
func (s *JSONLSink) Flush() error {
	if s.err != nil {
		return s.err
	}
	s.err = s.w.Flush()
	return s.err
}

// Close flushes and, if the sink owns the writer, closes it.
func (s *JSONLSink) Close() error {
	err := s.Flush()
	if s.c != nil {
		if cerr := s.c.Close(); err == nil {
			err = cerr
		}
		s.c = nil
	}
	return err
}

// appendShard appends the optional shard field (omitted at zero).
func appendShard(b []byte, shard int) []byte {
	if shard == 0 {
		return b
	}
	b = append(b, `,"shard":`...)
	return strconv.AppendInt(b, int64(shard), 10)
}

// emit writes one completed line from s.buf.
func (s *JSONLSink) emit() {
	if s.err != nil {
		return
	}
	s.buf = append(s.buf, '\n')
	_, s.err = s.w.Write(s.buf)
}

// Request implements Sink.
func (s *JSONLSink) Request(e RequestEvent) {
	b := s.buf[:0]
	b = append(b, `{"t":"req","page":`...)
	b = strconv.AppendUint(b, uint64(e.Page), 10)
	b = append(b, `,"q":`...)
	b = strconv.AppendUint(b, e.QueryID, 10)
	b = append(b, `,"hit":`...)
	b = strconv.AppendBool(b, e.Hit)
	if e.Coalesced {
		b = append(b, `,"coalesced":true`...)
	}
	b = appendShard(b, e.Shard)
	b = append(b, '}')
	s.buf = b
	s.emit()
}

// Eviction implements Sink.
func (s *JSONLSink) Eviction(e EvictionEvent) {
	b := s.buf[:0]
	b = append(b, `{"t":"evict","page":`...)
	b = strconv.AppendUint(b, uint64(e.Page), 10)
	b = append(b, `,"reason":"`...)
	b = append(b, e.Reason...)
	b = append(b, `","crit":`...)
	b = strconv.AppendFloat(b, e.Criterion, 'g', -1, 64)
	b = append(b, `,"rank":`...)
	b = strconv.AppendInt(b, int64(e.LRURank), 10)
	b = appendShard(b, e.Shard)
	b = append(b, '}')
	s.buf = b
	s.emit()
}

// Adapt implements Sink.
func (s *JSONLSink) Adapt(e AdaptEvent) {
	b := s.buf[:0]
	b = append(b, `{"t":"adapt","page":`...)
	b = strconv.AppendUint(b, uint64(e.Page), 10)
	b = append(b, `,"bs":`...)
	b = strconv.AppendInt(b, int64(e.BetterSpatial), 10)
	b = append(b, `,"bl":`...)
	b = strconv.AppendInt(b, int64(e.BetterLRU), 10)
	b = append(b, `,"old":`...)
	b = strconv.AppendInt(b, int64(e.OldC), 10)
	b = append(b, `,"new":`...)
	b = strconv.AppendInt(b, int64(e.NewC), 10)
	b = appendShard(b, e.Shard)
	b = append(b, '}')
	s.buf = b
	s.emit()
}

// Mark writes an out-of-band marker line (e.g. a run or phase boundary),
// so one stream can carry several labeled runs. The label is escaped.
// Mark flushes the buffered writer: combination boundaries are rare and
// load-bearing, so a reader tailing a live events file observes them
// (and everything before them) promptly instead of waiting for the 64 KiB
// buffer to fill.
func (s *JSONLSink) Mark(label string) {
	b := s.buf[:0]
	b = append(b, `{"t":"mark","label":`...)
	b = strconv.AppendQuote(b, label)
	b = append(b, '}')
	s.buf = b
	s.emit()
	if s.err == nil {
		s.err = s.w.Flush()
	}
}
