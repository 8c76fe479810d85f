package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval recorded by the benchmark around a call it
// makes into a layer. Spans of one operation share Op; Parent is the index
// of the enclosing span in the same recorder, -1 for an operation's root.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// recorder collects spans in memory for one goroutine; the traced run gives
// every client its own and merges them when the script ends. A nil recorder
// is the untraced run: every method is a no-op, so the measured loop is the
// same code either way.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder(epoch time.Time) *recorder { return &recorder{epoch: epoch} }

// begin opens a span and returns its id, to be passed to end and used as the
// parent of nested spans.
func (r *recorder) begin(op int, name string, parent int) int {
	if r == nil {
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Op: op, ID: id, Parent: parent, Name: name,
		Start: time.Since(r.epoch).Nanoseconds()})
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = time.Since(r.epoch).Nanoseconds()
}

// spanTotal aggregates every span of one name.
type spanTotal struct {
	Name   string `json:"name"`
	Count  int    `json:"count"`
	WallNS int64  `json:"wall_ns"` // sum of durations
	SelfNS int64  `json:"self_ns"` // sum of durations minus the part child spans cover
}

// spanTotals holds one spanTotal per span name.
type spanTotals map[string]*spanTotal

// get returns the totals for a name, zero if no such span was recorded.
func (t spanTotals) get(name string) spanTotal {
	if tot := t[name]; tot != nil {
		return *tot
	}
	return spanTotal{}
}

// selfTimes computes, per span name, the total and self time of one
// recorder's spans. A span's self time is its duration minus the union of
// its children's intervals (clipped to the parent, so an overrunning or
// overlapping child can never push self time below zero). The self time of a
// root span is the operation's untracked time.
func selfTimes(spans []span) spanTotals {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := spanTotals{}
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		cursor := s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, cursor), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		t := out[s.Name]
		if t == nil {
			t = &spanTotal{Name: s.Name}
			out[s.Name] = t
		}
		t.Count++
		t.WallNS += s.End - s.Start
		t.SelfNS += s.End - s.Start - covered
	}
	return out
}

// mergeTotals folds b into a.
func mergeTotals(a, b spanTotals) {
	for name, t := range b {
		if cur := a[name]; cur != nil {
			cur.Count += t.Count
			cur.WallNS += t.WallNS
			cur.SelfNS += t.SelfNS
		} else {
			cp := *t
			a[name] = &cp
		}
	}
}

// writeSpans appends one recorder's spans to a JSONL trace, one span per
// line, tagged with the workload and the client that recorded them (span ids
// are per client).
func writeSpans(path, workload string, client int, spans []span) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		row := struct {
			Workload string `json:"workload"`
			Client   int    `json:"client"`
			span
		}{workload, client, s}
		if err := enc.Encode(row); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
