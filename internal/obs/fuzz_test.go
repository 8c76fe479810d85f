package obs_test

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"graphite/internal/obs"
)

// FuzzTrace runs arbitrary bytes through the trace readers: ParseTrace, then
// Summarize, ValidateTrace and MergeClusterTrace with the trace as both the
// coordinator's and its one worker's. Nothing may panic, and a summary
// Summarize returns holds supersteps 1..n in order.
func FuzzTrace(f *testing.F) {
	sssp, err := os.ReadFile(filepath.Join("testdata", "transit_sssp.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sssp)
	// A merged cluster timeline is one trace both sides of a merge accept:
	// each worker record precedes the coordinator row that holds it.
	coord, workers := cleanCluster("span-f")
	ct, err := obs.MergeClusterTrace(coord, workers)
	if err != nil {
		f.Fatal(err)
	}
	var cluster bytes.Buffer
	jt := obs.NewJSONLTracer(&cluster)
	for _, e := range ct.Events {
		jt.Emit(e)
	}
	evs, err := obs.ParseTrace(bytes.NewReader(cluster.Bytes()))
	if err == nil {
		_, err = obs.MergeClusterTrace(evs, [][]obs.Event{evs})
	}
	if err != nil {
		f.Fatalf("the cluster seed does not merge with itself: %v", err)
	}
	f.Add(cluster.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := obs.ParseTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		if s, err := obs.Summarize(evs); err == nil {
			for i, r := range s.Rows {
				if r.Superstep != i+1 {
					t.Fatalf("summary row %d is superstep %d", i, r.Superstep)
				}
			}
			s.Render(io.Discard)
		}
		_ = obs.ValidateTrace(evs)
		if ct, err := obs.MergeClusterTrace(evs, [][]obs.Event{evs}); err == nil {
			ct.Render(io.Discard)
		}
	})
}
