package live

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"graphite/internal/algorithms"
	ival "graphite/internal/interval"
	"graphite/internal/stream"
	"graphite/internal/tgraph"
)

// copyFile snapshots a file's bytes so tests can restore pre-compaction
// states, simulating crashes at specific points of the protocol.
func copyFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return data
}

func TestCompactAndReopenMatchesUncompactedReplay(t *testing.T) {
	pathA := walPath(t) // compacted
	pathB := walPath(t) // control: plain replay
	ga, err := Open(pathA, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	gb, err := Open(pathB, Options{})
	if err != nil {
		t.Fatalf("Open control: %v", err)
	}
	batches := [][]stream.Event{
		chainBatch(0, 5, 0),
		chainBatch(5, 9, 10),
		{{Op: stream.RemoveEdge, T: 20, E: 3}},
		chainBatch(9, 12, 30),
		{{Op: stream.SetVertexProp, T: 40, V: 2, Label: "color", Value: 5}},
	}
	for i, b := range batches {
		if _, err := ga.Apply(b); err != nil {
			t.Fatalf("Apply %d: %v", i, err)
		}
		if _, err := gb.Apply(b); err != nil {
			t.Fatalf("Apply control %d: %v", i, err)
		}
		if i == 2 {
			stats, err := ga.Compact()
			if err != nil {
				t.Fatalf("Compact: %v", err)
			}
			if stats.Epoch != 3 || stats.WALAfter >= stats.WALBefore {
				t.Fatalf("compact stats = %+v", stats)
			}
			if _, err := os.Stat(SnapshotPath(pathA)); err != nil {
				t.Fatalf("snapshot missing after compact: %v", err)
			}
		}
	}
	infoA, infoB := ga.Info(), gb.Info()
	if infoA != infoB {
		t.Fatalf("live infos diverge: %+v vs %+v", infoA, infoB)
	}
	ga.Close()
	gb.Close()

	// The compacted WAL holds only the two post-compaction batches.
	ga2, err := Open(pathA, Options{})
	if err != nil {
		t.Fatalf("reopen compacted: %v", err)
	}
	defer ga2.Close()
	gb2, err := Open(pathB, Options{})
	if err != nil {
		t.Fatalf("reopen control: %v", err)
	}
	defer gb2.Close()

	recA, recB := ga2.LastRecovery(), gb2.LastRecovery()
	if !recA.FromSnapshot || recA.SnapshotEpoch != 3 || recA.Batches != 2 {
		t.Fatalf("compacted recovery = %+v", recA)
	}
	if recA.Events >= recB.Events || recB.FromSnapshot {
		t.Fatalf("compacted tail (%d events) not shorter than full replay (%d)",
			recA.Events, recB.Events)
	}

	// Bit-identical state: same info, same canonical graph bytes.
	if ia, ib := ga2.Info(), gb2.Info(); ia != ib || ia != infoA {
		t.Fatalf("reopened infos diverge: %+v vs %+v (want %+v)", ia, ib, infoA)
	}
	epA, epB := ga2.Acquire(), gb2.Acquire()
	defer epA.Release()
	defer epB.Release()
	if !bytes.Equal(graphBytes(t, epA.Graph()), graphBytes(t, epB.Graph())) {
		t.Fatal("compacted recovery and full replay produced different graphs")
	}
}

// eatDigest runs EAT from vertex 0 over g and renders every state by id: a
// run reads the whole graph through its scatter plan.
func eatDigest(t *testing.T, g *tgraph.Graph) string {
	t.Helper()
	r, err := algorithms.RunEAT(g, 0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for v, st := range r.ByID() {
		fmt.Fprintln(&b, v.ID, st.Lifespan(), st.Parts())
	}
	return b.String()
}

// TestCompactNoTailServesMappedEpoch: a reopen with nothing past the snapshot
// serves the mapped graph itself, and the next batch patches onto it. The
// epoch that patch publishes must outlive the mapping: once every reader of
// the mapped epoch lets go, the pages unmap, and the new epoch — read in
// full, run over with the plan it inherits from the mapped one, and patched
// again — must equal, byte for byte, a control that replayed the batches.
func TestCompactNoTailServesMappedEpoch(t *testing.T) {
	// The batch onto the mapped epoch adds no vertex, so nothing about the
	// vertex table changes but what the patch builds anew.
	batches := [][]stream.Event{
		chainBatch(0, 6, 0),
		{{Op: stream.AddEdge, T: 50, E: 20, Src: 0, Dst: 5}, {Op: stream.SetEdgeProp, T: 50, E: 20, Label: "travel-time", Value: 2},
			{Op: stream.RemoveEdge, T: 51, E: 2}},
		append(chainBatch(6, 8, 60), stream.Event{Op: stream.SetEdgeProp, T: 61, E: 4, Label: "travel-time", Value: 3}),
	}
	control, err := Open(walPath(t), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer control.Close()
	// same applies batch i to the control and holds g's epoch to its own.
	same := func(g *Graph, i int) {
		t.Helper()
		if _, err := control.Apply(batches[i]); err != nil {
			t.Fatalf("control batch %d: %v", i, err)
		}
		ep, want := g.Acquire(), control.Acquire()
		defer ep.Release()
		defer want.Release()
		if !bytes.Equal(graphBytes(t, ep.Graph()), graphBytes(t, want.Graph())) {
			t.Fatalf("batch %d: the epoch differs from the control's", i)
		}
		if eatDigest(t, ep.Graph()) != eatDigest(t, want.Graph()) {
			t.Fatalf("batch %d: EAT over the epoch differs from the control's", i)
		}
	}
	path := walPath(t)
	g, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := g.Apply(batches[0]); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if _, err := g.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	g.Close()

	g2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer g2.Close()
	rec := g2.LastRecovery()
	if !rec.FromSnapshot || rec.Batches != 0 || rec.Events != 0 {
		t.Fatalf("recovery = %+v, want snapshot-only", rec)
	}
	mapped := g2.Acquire()
	if mapped.drop == nil {
		t.Fatal("tail-free reopen should serve the mapped snapshot directly")
	}
	if mapped.ID() != 1 {
		t.Fatalf("epoch id = %d, want 1", mapped.ID())
	}
	same(g2, 0) // and the mapped epoch now has a plan its successor inherits
	// Ingest continues on top of the mapped epoch; the mapping is dropped
	// once the old epoch's readers (us) let go.
	if _, err := g2.Apply(batches[1]); err != nil {
		t.Fatalf("Apply on mapped epoch: %v", err)
	}
	mapped.Release()
	if n := g2.EpochsLive(); n != 1 {
		t.Fatalf("%d epochs live after the mapped one's last reader let go, want 1", n)
	}
	same(g2, 1)
	if _, err := g2.Apply(batches[2]); err != nil {
		t.Fatalf("Apply after the mapping went: %v", err)
	}
	same(g2, 2)
	if info := g2.Info(); info.Epoch != 3 || info.Vertices != 8 {
		t.Fatalf("post-ingest info = %+v", info)
	}
}

// TestResumedMatchesReplayed: a graph reopened from its compaction snapshot
// and one that replayed its whole log take and refuse the same batches. Each
// bad event — a reopen, a still-open add, an unknown owner, an event out of
// order, a vertex removed under an open edge, and a re-add of a vertex and
// of an edge whose lifespans came out empty, which no epoch holds — is
// rejected by both with the same sentinel; then a good tail gives both the
// same graph.
func TestResumedMatchesReplayed(t *testing.T) {
	history := [][]stream.Event{
		chainBatch(0, 5, 0),
		{{Op: stream.AddVertex, T: 10, V: 20}, {Op: stream.RemoveVertex, T: 10, V: 20},
			{Op: stream.AddEdge, T: 10, E: 30, Src: 0, Dst: 1}},
		{{Op: stream.RemoveEdge, T: 10, E: 30}, {Op: stream.RemoveEdge, T: 11, E: 4},
			{Op: stream.RemoveVertex, T: 12, V: 4}, {Op: stream.SetVertexProp, T: 12, V: 2, Label: "color", Value: 5}},
	}
	pathA, pathB := walPath(t), walPath(t)
	ga, err := Open(pathA, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gb, err := Open(pathB, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range history {
		if _, err := ga.Apply(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if _, err := gb.Apply(b); err != nil {
			t.Fatalf("control batch %d: %v", i, err)
		}
	}
	if _, err := ga.Compact(); err != nil {
		t.Fatal(err)
	}
	ga.Close()
	gb.Close()
	if ga, err = Open(pathA, Options{}); err != nil {
		t.Fatal(err)
	}
	defer ga.Close()
	if gb, err = Open(pathB, Options{}); err != nil {
		t.Fatal(err)
	}
	defer gb.Close()
	if rec := ga.LastRecovery(); !rec.FromSnapshot || rec.Batches != 0 {
		t.Fatalf("recovery = %+v, want the snapshot alone", rec)
	}
	bad := map[string]struct {
		ev   stream.Event
		want error
	}{
		"reopen":                     {stream.Event{Op: stream.AddVertex, T: 12, V: 4}, stream.ErrReopened},
		"still open":                 {stream.Event{Op: stream.AddVertex, T: 12, V: 3}, stream.ErrStillOpen},
		"unknown owner":              {stream.Event{Op: stream.SetVertexProp, T: 12, V: 99, Label: "w", Value: 1}, stream.ErrUnknownOwner},
		"out of order":               {stream.Event{Op: stream.AddVertex, T: 11, V: 99}, stream.ErrOutOfOrder},
		"removed under an open edge": {stream.Event{Op: stream.RemoveVertex, T: 12, V: 2}, tgraph.ErrEdgeOutlives},
		"zero-length vertex re-add":  {stream.Event{Op: stream.AddVertex, T: 12, V: 20}, stream.ErrReopened},
		"zero-length edge re-add":    {stream.Event{Op: stream.AddEdge, T: 12, E: 30, Src: 0, Dst: 1}, stream.ErrReopened},
	}
	for name, c := range bad {
		_, errA := ga.Apply([]stream.Event{c.ev})
		_, errB := gb.Apply([]stream.Event{c.ev})
		if !errors.Is(errA, c.want) || !errors.Is(errB, c.want) {
			t.Errorf("%s: resumed %v, replayed %v, want %v from both", name, errA, errB, c.want)
		}
	}
	tail := []stream.Event{{Op: stream.AddVertex, T: 20, V: 5}, {Op: stream.AddEdge, T: 20, E: 40, Src: 3, Dst: 5},
		{Op: stream.SetEdgeProp, T: 21, E: 40, Label: "travel-time", Value: 2},
		{Op: stream.SetVertexProp, T: 23, V: 2, Label: "color", Value: 6}, {Op: stream.RemoveEdge, T: 24, E: 3}}
	if _, err := ga.Apply(tail); err != nil {
		t.Fatalf("tail on the resumed graph: %v", err)
	}
	if _, err := gb.Apply(tail); err != nil {
		t.Fatalf("tail on the replayed graph: %v", err)
	}
	if ia, ib := ga.Info(), gb.Info(); ia != ib {
		t.Fatalf("infos diverge: %+v vs %+v", ia, ib)
	}
	epA, epB := ga.Acquire(), gb.Acquire()
	defer epA.Release()
	defer epB.Release()
	if err := tgraph.Equal(epA.Graph(), epB.Graph()); err != nil {
		t.Fatalf("resumed and replayed graphs differ: %v", err)
	}
}

// TestVersionOneSnapshotIsLost: a snapshot whose header is the version that
// carried a marshaled accumulator is refused, so a log compacted against it
// opens as ErrSnapshotLost rather than resuming from a misread header.
func TestVersionOneSnapshotIsLost(t *testing.T) {
	path := walPath(t)
	g, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Apply(chainBatch(0, 4, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Compact(); err != nil {
		t.Fatal(err)
	}
	ep := g.Acquire()
	// Version 1: uvarint version, uvarint epoch, varint horizon, then the
	// accumulator state (here its empty form: version 1 and six zero counts).
	old := tgraph.EncodeSnapshot(ep.Graph(), []byte{1, 1, 0, 1, 7, 3, 0, 0, 0, 0, 0, 0})
	ep.Release()
	g.Close()
	if err := os.WriteFile(SnapshotPath(path), old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); !errors.Is(err, ErrSnapshotLost) || !strings.Contains(err.Error(), errLiveExtra.Error()) {
		t.Fatalf("open over a version-1 snapshot: %v, want ErrSnapshotLost naming the header", err)
	}
}

// FuzzLiveSnapshotHeader: the header is read from a file, so every input is
// rejected wrapping errLiveExtra, or decodes and encodes back to its bytes.
func FuzzLiveSnapshotHeader(f *testing.F) {
	empty := encodeLiveExtra(liveHeader{})
	full := encodeLiveExtra(liveHeader{epoch: 7, now: 42, events: 1000,
		retired: stream.Retired{Vertices: []tgraph.VertexID{-3, 5, 9}, Edges: []tgraph.EdgeID{30}}})
	f.Add(empty)
	f.Add(full)
	for _, cut := range []int{0, 3, 8*liveHeaderWords - 1, len(full) - 1} {
		f.Add(full[:cut])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := decodeLiveExtra(data)
		if err != nil {
			if !errors.Is(err, errLiveExtra) {
				t.Fatalf("untyped rejection: %v", err)
			}
			return
		}
		if enc := encodeLiveExtra(h); !bytes.Equal(enc, data) {
			t.Fatalf("header %x decodes to %+v, which encodes as %x", data, h, enc)
		}
	})
}

func TestCompactEveryAutoCompacts(t *testing.T) {
	path := walPath(t)
	g, err := Open(path, Options{CompactEvery: 10})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 6; i++ {
		if _, err := g.Apply(chainBatch(i*3, i*3+3, ival.Time(i*10))); err != nil {
			t.Fatalf("Apply %d: %v", i, err)
		}
	}
	total := g.Info().Events
	g.Close()
	if _, err := os.Stat(SnapshotPath(path)); err != nil {
		t.Fatalf("auto-compaction produced no snapshot: %v", err)
	}
	g2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer g2.Close()
	rec := g2.LastRecovery()
	if !rec.FromSnapshot || rec.Events >= total {
		t.Fatalf("recovery after auto-compaction = %+v (total %d events)", rec, total)
	}
}

func TestCompactedWALWithoutSnapshotIsLost(t *testing.T) {
	path := walPath(t)
	g, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := g.Apply(chainBatch(0, 4, 0)); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if _, err := g.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	g.Close()
	if err := os.Remove(SnapshotPath(path)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); !errors.Is(err, ErrSnapshotLost) {
		t.Fatalf("open without snapshot: %v, want ErrSnapshotLost", err)
	}
	// A corrupt snapshot is equally lost.
	if err := os.WriteFile(SnapshotPath(path), []byte("GSNAP\nnot really"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); !errors.Is(err, ErrSnapshotLost) {
		t.Fatalf("open with corrupt snapshot: %v, want ErrSnapshotLost", err)
	}
}

func TestSnapshotAheadOfWALBaseSkipsCoveredPrefix(t *testing.T) {
	// Simulate a crash between the snapshot rename and the log rotation:
	// the surviving pair is a fresh snapshot plus the FULL pre-compaction
	// log. Open must skip the covered prefix and replay only the rest.
	path := walPath(t)
	g, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := g.Apply(chainBatch(0, 4, 0)); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if _, err := g.Apply(chainBatch(4, 6, 10)); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	preCompactWAL := copyFile(t, path)
	if _, err := g.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	want := g.Info()
	g.Close()
	// Roll the log back to its pre-rotation state; the snapshot now covers
	// every batch the log holds.
	if err := os.WriteFile(path, preCompactWAL, 0o644); err != nil {
		t.Fatal(err)
	}
	g2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen with stale log: %v", err)
	}
	defer g2.Close()
	rec := g2.LastRecovery()
	if !rec.FromSnapshot || rec.Batches != 0 {
		t.Fatalf("recovery = %+v, want fully-covered log skipped", rec)
	}
	if got := g2.Info(); got.Events != want.Events || got.Vertices != want.Vertices {
		t.Fatalf("recovered info = %+v, want %+v", got, want)
	}

	// A log that ends mid-coverage (shorter than the snapshot claims) is
	// corruption: coverage must align with batch boundaries.
	g2.Close()
	if err := os.WriteFile(path, preCompactWAL[:len(preCompactWAL)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("open with under-covered log: %v, want ErrWALCorrupt", err)
	}
}

// TestFailedRotationWedgesOnlyAReplacedLog: a compaction whose rotation
// fails before its rename leaves the log in place, so the graph keeps taking
// batches and they replay. One that fails after it — the directory fsync,
// or reopening the new file — leaves a new log at the path and the handle on
// the old, unlinked one; the test builds that state by renaming a copy of
// the log over the path, then fails the rotation with a directory where its
// temp file goes. A batch appended to the orphan would be acknowledged and
// lost at the next Open, so the graph must take none.
func TestFailedRotationWedgesOnlyAReplacedLog(t *testing.T) {
	for _, replaced := range []bool{false, true} {
		path := walPath(t)
		g, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if _, err := g.Apply(chainBatch(0, 4, 0)); err != nil {
			t.Fatalf("Apply: %v", err)
		}
		if replaced {
			if err := os.WriteFile(path+".new", copyFile(t, path), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Rename(path+".new", path); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.Mkdir(path+".tmp", 0o755); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Compact(); err == nil {
			t.Fatalf("replaced %v: a rotation that could not write its log succeeded", replaced)
		}
		acked := g.Info().Events
		_, err = g.Apply(chainBatch(4, 6, 5))
		switch {
		case replaced && (!errors.Is(err, ErrClosed) || !strings.Contains(err.Error(), "the log was replaced")):
			t.Fatalf("Apply after the log was replaced: %v, want ErrClosed naming the cause", err)
		case !replaced && err != nil:
			t.Fatalf("Apply after a rotation that left the log in place: %v", err)
		case !replaced:
			acked = g.Info().Events
		}
		g.Close()
		g2, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("replaced %v: reopen: %v", replaced, err)
		}
		if got := g2.Info().Events; got != acked {
			t.Errorf("replaced %v: reopened with %d events, %d acknowledged", replaced, got, acked)
		}
		g2.Close()
	}
}
