package tracing

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// chromeEvent is one entry of the Chrome trace_event format's
// traceEvents array. Timestamps and durations are microseconds (with
// fractional precision: the spans are recorded in nanoseconds).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int32          `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// spanArgs renders the kind-specific span payload as Chrome/Perfetto
// event args.
func spanArgs(sp Span) map[string]any {
	args := make(map[string]any, 8)
	switch sp.Kind {
	case KindGet, KindPut, KindFix, KindUnfix, KindMarkDirty:
		args["page"] = uint64(sp.Page)
		args["query"] = sp.QueryID
		args["hit"] = sp.Hit
		args["shard"] = sp.Shard
		if sp.LockWait > 0 {
			args["lock_wait_ns"] = sp.LockWait
		}
	case KindFlush:
		args["shard"] = sp.Shard
	case KindVictim:
		args["reason"] = sp.Reason
		args["criterion"] = sp.CritKind
		args["crit_win"] = sp.CritWin
		args["lru_rank"] = sp.Rank
		args["arena_slot"] = sp.Slot
		args["page"] = uint64(sp.Page)
	case KindAdapt:
		args["old_c"] = sp.OldC
		args["new_c"] = sp.NewC
		args["better_spatial"] = sp.BetterSpatial
		args["better_lru"] = sp.BetterLRU
		args["page"] = uint64(sp.Page)
	case KindStoreRead, KindStoreWrite, KindWriteback:
		args["page"] = uint64(sp.Page)
		args["bytes"] = sp.Bytes
	case KindIOWait:
		args["page"] = uint64(sp.Page)
		args["coalesced"] = sp.Hit
	}
	if sp.Err {
		args["error"] = true
	}
	return args
}

// WriteChromeTrace writes the traces in the Chrome trace_event JSON
// format — load the file in chrome://tracing or https://ui.perfetto.dev.
// Each shard appears as a process (pid = shard), each sampled request as
// a thread (tid = trace ID), so concurrent requests on one shard render
// as parallel tracks and the spans of one request nest by containment.
func WriteChromeTrace(w io.Writer, traces [][]Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(e chromeEvent) error {
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		// Encoder appends a newline per value; inside an array that is
		// harmless whitespace.
		return enc.Encode(e)
	}
	shards := map[int32]bool{}
	for _, tr := range traces {
		for _, sp := range tr {
			if !shards[sp.Shard] {
				shards[sp.Shard] = true
				err := emit(chromeEvent{
					Name: "process_name", Ph: "M", Pid: sp.Shard,
					Args: map[string]any{"name": fmt.Sprintf("shard %d", sp.Shard)},
				})
				if err != nil {
					return err
				}
			}
			err := emit(chromeEvent{
				Name: sp.Kind.String(),
				Ph:   "X",
				Ts:   float64(sp.Start) / 1e3,
				Dur:  float64(sp.Dur) / 1e3,
				Pid:  sp.Shard,
				Tid:  sp.Trace,
				Args: spanArgs(sp),
			})
			if err != nil {
				return err
			}
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
