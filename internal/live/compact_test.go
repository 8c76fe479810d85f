package live

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	ival "graphite/internal/interval"
	"graphite/internal/stream"
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
	ga, err := Open(pathA, Options{Horizon: 1000})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	gb, err := Open(pathB, Options{Horizon: 1000})
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
	ga2, err := Open(pathA, Options{Horizon: 1000})
	if err != nil {
		t.Fatalf("reopen compacted: %v", err)
	}
	defer ga2.Close()
	gb2, err := Open(pathB, Options{Horizon: 1000})
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

func TestCompactNoTailServesMappedEpoch(t *testing.T) {
	path := walPath(t)
	g, err := Open(path, Options{Horizon: 500})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := g.Apply(chainBatch(0, 6, 0)); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if _, err := g.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	ep := g.Acquire()
	want := graphBytes(t, ep.Graph())
	ep.Release()
	g.Close()

	g2, err := Open(path, Options{Horizon: 500})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	rec := g2.LastRecovery()
	if !rec.FromSnapshot || rec.Batches != 0 || rec.Events != 0 {
		t.Fatalf("recovery = %+v, want snapshot-only", rec)
	}
	ep2 := g2.Acquire()
	if ep2.drop == nil {
		t.Fatal("tail-free reopen should serve the mapped snapshot directly")
	}
	if got := graphBytes(t, ep2.Graph()); !bytes.Equal(got, want) {
		t.Fatal("mapped epoch differs from pre-close graph")
	}
	if ep2.ID() != 1 {
		t.Fatalf("epoch id = %d, want 1", ep2.ID())
	}
	// Ingest continues on top of the mapped epoch; the mapping is dropped
	// once the old epoch's readers (us) let go.
	if _, err := g2.Apply(chainBatch(6, 8, 50)); err != nil {
		t.Fatalf("Apply on mapped epoch: %v", err)
	}
	ep2.Release()
	cur := g2.Acquire()
	if cur.ID() != 2 || cur.Graph().NumVertices() != 8 {
		t.Fatalf("post-ingest epoch = %d with %d vertices", cur.ID(), cur.Graph().NumVertices())
	}
	cur.Release()
	g2.Close()

	// A different horizon at reopen forces materialization from the
	// accumulator instead of the mapped fast path — same graph contents.
	g3, err := Open(path, Options{Horizon: 999})
	if err != nil {
		t.Fatalf("reopen with new horizon: %v", err)
	}
	defer g3.Close()
	ep3 := g3.Acquire()
	defer ep3.Release()
	if ep3.drop != nil {
		t.Fatal("horizon change must not reuse the mapped snapshot graph")
	}
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
