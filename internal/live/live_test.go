package live

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	ival "graphite/internal/interval"
	"graphite/internal/obs"
	"graphite/internal/stream"
	"graphite/internal/tgraph"
)

func walPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "graph.wal")
}

// chainBatch returns events appending vertices n..m-1 and edges chaining
// them, each step one time unit later, starting at time t0.
func chainBatch(n, m int, t0 ival.Time) []stream.Event {
	var evs []stream.Event
	tt := t0
	for i := n; i < m; i++ {
		evs = append(evs, stream.Event{Op: stream.AddVertex, T: tt, V: tgraph.VertexID(i)})
		if i > 0 {
			e := tgraph.EdgeID(i)
			evs = append(evs,
				stream.Event{Op: stream.AddEdge, T: tt, E: e, Src: tgraph.VertexID(i - 1), Dst: tgraph.VertexID(i)},
				stream.Event{Op: stream.SetEdgeProp, T: tt, E: e, Label: "travel-time", Value: 1})
		}
		tt++
	}
	return evs
}

// graphBytes renders a canonical byte encoding for exact-equality checks:
// the snapshot encoding is deterministic (tgraph's TestSnapshotGolden).
func graphBytes(t *testing.T, g *tgraph.Graph) []byte {
	t.Helper()
	return tgraph.EncodeSnapshot(g, nil)
}

func TestOpenEmptyAndApply(t *testing.T) {
	g, err := Open(walPath(t), Options{Name: "t"})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer g.Close()
	if info := g.Info(); info.Epoch != 0 || info.Events != 0 || info.Vertices != 0 {
		t.Fatalf("fresh graph info = %+v", info)
	}
	info, err := g.Apply(chainBatch(0, 4, 0))
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if info.Epoch != 1 || info.Vertices != 4 || info.Edges != 3 {
		t.Fatalf("info after first batch = %+v", info)
	}
	if _, err := g.Apply(nil); !errors.Is(err, ErrEmptyBatch) {
		t.Fatalf("empty batch: got %v", err)
	}
}

func TestApplyIsBatchAtomic(t *testing.T) {
	g, err := Open(walPath(t), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer g.Close()
	if _, err := g.Apply(chainBatch(0, 3, 0)); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	before := g.Info()
	// Batch whose second event is invalid (edge to an unknown vertex): the
	// whole batch must be rejected without publishing an epoch or touching
	// the WAL.
	bad := []stream.Event{
		{Op: stream.AddVertex, T: 9, V: 50},
		{Op: stream.AddEdge, T: 9, E: 99, Src: 50, Dst: 777},
	}
	if _, err := g.Apply(bad); !errors.Is(err, stream.ErrUnknownOwner) {
		t.Fatalf("bad batch: got %v", err)
	}
	if after := g.Info(); after != before {
		t.Fatalf("rejected batch changed graph: %+v -> %+v", before, after)
	}
	// And the WAL holds no trace of it: a reopen sees only the good batch.
	path := g.w.path
	g.Close()
	g2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer g2.Close()
	if info := g2.Info(); info.Events != before.Events {
		t.Fatalf("reopened events = %d, want %d", info.Events, before.Events)
	}
}

func TestReopenReplaysToIdenticalGraph(t *testing.T) {
	path := walPath(t)
	g, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := g.Apply(chainBatch(0, 5, 0)); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if _, err := g.Apply(chainBatch(5, 9, 10)); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if _, err := g.Apply([]stream.Event{{Op: stream.RemoveEdge, T: 20, E: 3}}); err != nil {
		t.Fatalf("Apply remove: %v", err)
	}
	ep := g.Acquire()
	want := graphBytes(t, ep.Graph())
	wantInfo := ep.Info()
	ep.Release()
	g.Close()

	g2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer g2.Close()
	ep2 := g2.Acquire()
	defer ep2.Release()
	if got := graphBytes(t, ep2.Graph()); !bytes.Equal(got, want) {
		t.Fatalf("replayed graph differs from pre-close graph")
	}
	if gotInfo := ep2.Info(); gotInfo != wantInfo {
		t.Fatalf("replayed info = %+v, want %+v", gotInfo, wantInfo)
	}
}

// TestWALZeroTailIsTorn: a tail the filesystem zero-extended before a crash
// is a torn tail — the acknowledged batches replay, nothing more, and the
// file is cut back to them — not a run of empty batches: eight zero bytes
// would otherwise frame as a record (length 0, CRC-32 of nothing 0).
func TestWALZeroTailIsTorn(t *testing.T) {
	path := walPath(t)
	g, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	acked := [][]stream.Event{chainBatch(0, 4, 0), chainBatch(4, 6, 5)}
	for _, b := range acked {
		if _, err := g.Apply(b); err != nil {
			t.Fatalf("Apply: %v", err)
		}
	}
	want := g.Info()
	g.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(bytes.Clone(raw), make([]byte, 4096)...), 0o644); err != nil {
		t.Fatal(err)
	}

	w, batches, truncated, err := openWAL(path, true)
	if err != nil {
		t.Fatalf("openWAL over a zero-filled tail: %v", err)
	}
	w.close()
	if !truncated || len(batches) != len(acked) {
		t.Fatalf("replayed %d batches (truncated %v), want the %d acknowledged and a torn tail", len(batches), truncated, len(acked))
	}
	for i := range batches {
		if !slices.Equal(batches[i], acked[i]) {
			t.Errorf("batch %d replayed as %+v, want %+v", i, batches[i], acked[i])
		}
	}
	if st, err := os.Stat(path); err != nil || st.Size() != int64(len(raw)) {
		t.Errorf("log is %d bytes after reopening, want it cut back to %d (%v)", st.Size(), len(raw), err)
	}
	g2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open after truncation: %v", err)
	}
	defer g2.Close()
	if got := g2.Info(); got != want {
		t.Errorf("reopened info = %+v, want %+v", got, want)
	}
}

func TestTornTailTruncatedOnReplay(t *testing.T) {
	path := walPath(t)
	g, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := g.Apply(chainBatch(0, 4, 0)); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if _, err := g.Apply(chainBatch(4, 6, 5)); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	events := g.Info().Events
	g.Close()

	// Simulate a crash mid-append: a partial frame at the tail.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read WAL: %v", err)
	}
	for cut := 1; cut < 12; cut += 3 {
		torn := append(append([]byte{}, raw...), make([]byte, cut)...)
		torn[len(torn)-1] = 0x7f // garbage tail
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatalf("write torn WAL: %v", err)
		}
		g2, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("open torn WAL (cut %d): %v", cut, err)
		}
		if got := g2.Info().Events; got != events {
			t.Fatalf("cut %d: events = %d, want %d", cut, got, events)
		}
		// The truncation is durable: the next append goes to a clean tail.
		if _, err := g2.Apply([]stream.Event{
			{Op: stream.AddVertex, T: ival.Time(10 + cut), V: tgraph.VertexID(100 + cut)},
		}); err != nil {
			t.Fatalf("append after truncation: %v", err)
		}
		g2.Close()
		raw2, _ := os.ReadFile(path)
		g3, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("reopen after truncated append: %v", err)
		}
		if got := g3.Info().Events; got != events+1 {
			t.Fatalf("cut %d: after append events = %d, want %d", cut, got, events+1)
		}
		g3.Close()
		raw = raw[:0]
		raw = append(raw, raw2...)
		events++
	}
}

// TestTornCreationIsRecreated: a log shorter than its magic (a creation an
// older build tore) holds nothing acknowledged, so Open creates it anew, and
// what is appended after reads back on the next Open.
func TestTornCreationIsRecreated(t *testing.T) {
	for _, stub := range []string{"", "GW", "GWAL"} {
		path := walPath(t)
		if err := os.WriteFile(path, []byte(stub), 0o644); err != nil {
			t.Fatal(err)
		}
		g, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("open %q: %v", stub, err)
		}
		if !g.LastRecovery().Truncated || g.Info().Events != 0 {
			t.Fatalf("open %q: recovery %+v, %d events; want a truncated empty log", stub, g.LastRecovery(), g.Info().Events)
		}
		if _, err := g.Apply(chainBatch(0, 3, 0)); err != nil {
			t.Fatalf("Apply: %v", err)
		}
		events := g.Info().Events
		g.Close()
		g2, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("reopen after %q: %v", stub, err)
		}
		if got := g2.Info().Events; got != events || g2.LastRecovery().Truncated {
			t.Fatalf("reopen after %q: %d events (recovery %+v), want %d", stub, got, g2.LastRecovery(), events)
		}
		g2.Close()
	}
}

func TestMidFileCorruptionIsTyped(t *testing.T) {
	path := walPath(t)
	g, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := g.Apply(chainBatch(0, 4, 0)); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if _, err := g.Apply(chainBatch(4, 8, 5)); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	g.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read WAL: %v", err)
	}
	raw[len(walMagic)+8] ^= 0xff // flip a byte inside the first record
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("write corrupt WAL: %v", err)
	}
	if _, err := Open(path, Options{}); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("want ErrWALCorrupt, got %v", err)
	}
}

// TestConcurrentReadersSeeStableEpochs is the MVCC acceptance test: readers
// pin epochs and hash their graphs repeatedly while a writer keeps
// appending; every reader must see a byte-identical graph for as long as it
// holds the epoch, and reclamation must account for every release. Run
// under -race.
func TestConcurrentReadersSeeStableEpochs(t *testing.T) {
	g, err := Open(walPath(t), Options{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer g.Close()
	if _, err := g.Apply(chainBatch(0, 10, 0)); err != nil {
		t.Fatalf("seed batch: %v", err)
	}

	const (
		readers      = 4
		batches      = 30
		readsPerSpan = 8
	)
	var wg sync.WaitGroup
	errc := make(chan error, readers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		lo := 10
		for i := 0; i < batches; i++ {
			if _, err := g.Apply(chainBatch(lo, lo+3, ival.Time(10+i*2))); err != nil {
				errc <- err
				return
			}
			lo += 3
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				ep := g.Acquire()
				want := graphBytes(t, ep.Graph())
				id := ep.ID()
				for j := 0; j < readsPerSpan; j++ {
					if got := graphBytes(t, ep.Graph()); !bytes.Equal(got, want) {
						errc <- errors.New("pinned epoch changed under reader")
						ep.Release()
						return
					}
					if ep.ID() != id {
						errc <- errors.New("epoch id changed")
						ep.Release()
						return
					}
				}
				ep.Release()
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	// All readers done: only the current epoch should remain live.
	if n := g.EpochsLive(); n != 1 {
		t.Fatalf("epochs live after quiesce = %d, want 1", n)
	}
	if got := g.Info().Epoch; got != 1+batches {
		t.Fatalf("current epoch = %d, want %d", got, 1+batches)
	}
}

func TestEffectiveEpochTracksWindowSensitivity(t *testing.T) {
	g, err := Open(walPath(t), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer g.Close()
	if _, err := g.Apply(chainBatch(0, 4, 0)); err != nil { // epoch 1, times 0..3
		t.Fatalf("Apply: %v", err)
	}
	w := ival.New(0, 10)
	e1 := g.EffectiveEpoch(w)
	if e1 != 1 {
		t.Fatalf("effective epoch = %d, want 1", e1)
	}
	// A batch entirely at t >= 10 must not disturb windows ending at 10.
	if _, err := g.Apply(chainBatch(4, 6, 15)); err != nil { // epoch 2
		t.Fatalf("Apply: %v", err)
	}
	if got := g.EffectiveEpoch(w); got != e1 {
		t.Fatalf("future batch moved effective epoch: %d -> %d", e1, got)
	}
	// But it does disturb wider and unbounded windows.
	if got := g.EffectiveEpoch(ival.New(0, 20)); got != 2 {
		t.Fatalf("effective epoch for [0,20) = %d, want 2", got)
	}
	if got := g.EffectiveEpoch(ival.New(0, ival.Infinity)); got != 2 {
		t.Fatalf("effective epoch for unbounded = %d, want 2", got)
	}
	// Later mutations of existing entities still spare the old window but
	// keep moving windows that reach past them.
	if _, err := g.Apply([]stream.Event{
		{Op: stream.SetEdgeProp, T: 17, E: 1, Label: "travel-time", Value: 9},
	}); err != nil { // epoch 3
		t.Fatalf("prop batch rejected: %v", err)
	}
	if _, err := g.Apply([]stream.Event{{Op: stream.RemoveEdge, T: 18, E: 2}}); err != nil { // epoch 4
		t.Fatalf("remove batch: %v", err)
	}
	if got := g.EffectiveEpoch(w); got != e1 {
		t.Fatalf("mutations at t>=17 moved effective epoch for [0,10)")
	}
	if got := g.EffectiveEpoch(ival.New(0, 18)); got != 3 {
		t.Fatalf("effective epoch for [0,18) = %d, want 3", got)
	}
	if got := g.EffectiveEpoch(ival.New(0, 20)); got != 4 {
		t.Fatalf("effective epoch for [0,20) = %d, want 4", got)
	}
}

// TestRemoveVertexWithOpenEdgeIsRejected: removing a vertex while an edge of
// its is open is a rejected batch, not an accepted one whose epoch cannot be
// built — which would wedge the graph and every later Open of its log.
func TestRemoveVertexWithOpenEdgeIsRejected(t *testing.T) {
	path := walPath(t)
	g, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := g.Apply([]stream.Event{
		{Op: stream.AddVertex, T: 0, V: 1},
		{Op: stream.AddVertex, T: 0, V: 2},
		{Op: stream.AddEdge, T: 1, E: 10, Src: 1, Dst: 2},
	}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	before := g.Info()
	if _, err := g.Apply([]stream.Event{{Op: stream.RemoveVertex, T: 5, V: 1}}); !errors.Is(err, tgraph.ErrEdgeOutlives) {
		t.Fatalf("removing vertex 1 under open edge 10: got %v, want ErrEdgeOutlives", err)
	}
	if after := g.Info(); after != before {
		t.Fatalf("rejected batch changed graph: %+v -> %+v", before, after)
	}
	if _, err := g.Apply([]stream.Event{{Op: stream.RemoveEdge, T: 5, E: 10}, {Op: stream.RemoveVertex, T: 5, V: 1}}); err != nil {
		t.Fatalf("removing the edge first: %v", err)
	}
	want := g.Info()
	g.Close()
	g2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer g2.Close()
	if got := g2.Info(); got != want {
		t.Fatalf("reopened info = %+v, want %+v", got, want)
	}
}

func TestWALEncodingRoundTrips(t *testing.T) {
	batch := []stream.Event{
		{Op: stream.AddVertex, T: 0, V: 1},
		{Op: stream.AddVertex, T: 0, V: 2},
		{Op: stream.AddEdge, T: 1, E: 7, Src: 1, Dst: 2},
		{Op: stream.SetEdgeProp, T: 2, E: 7, Label: "travel-time", Value: -3},
		{Op: stream.SetVertexProp, T: 3, V: 2, Label: "π", Value: 1 << 40},
		{Op: stream.RemoveEdge, T: 4, E: 7},
		{Op: stream.RemoveVertex, T: 5, V: 2},
	}
	got, err := decodeBatch(encodeBatch(batch))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(batch) {
		t.Fatalf("round trip length %d, want %d", len(got), len(batch))
	}
	for i := range batch {
		if got[i] != batch[i] {
			t.Errorf("event %d: %+v != %+v", i, got[i], batch[i])
		}
	}
	// Truncated payloads fail loudly rather than misparse.
	enc := encodeBatch(batch)
	for cut := 1; cut < len(enc); cut += 7 {
		if _, err := decodeBatch(enc[:cut]); err == nil {
			t.Errorf("truncation at %d decoded silently", cut)
		}
	}
}

// TestUntakenAppendWedges: Apply reports a batch whose fsync failed as
// failed, so the log must not keep its record — a retry would replay twice.
// Here the log is a pipe's write end: the write succeeds, the fsync fails
// (EINVAL) and so does cutting the record back off, so the graph must take
// no further batch.
func TestUntakenAppendWedges(t *testing.T) {
	g, err := Open(walPath(t), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer g.Close()
	if _, err := g.Apply(chainBatch(0, 4, 0)); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	defer w.Close()
	g.w.f.Close()
	g.w.f = w
	before := g.Info()
	if _, err := g.Apply(chainBatch(4, 6, 5)); err == nil {
		t.Fatal("an append whose fsync failed was acknowledged")
	}
	if _, err := g.Apply(chainBatch(4, 6, 5)); !errors.Is(err, ErrClosed) || !strings.Contains(err.Error(), errWALDiverged.Error()) {
		t.Fatalf("Apply after an append the log could not take back: %v, want ErrClosed naming the cause", err)
	}
	if g.Info() != before {
		t.Fatalf("failed appends changed the graph: %+v, was %+v", g.Info(), before)
	}
}

// TestTakenBackAppendKeepsGoing: an append whose write failed part-way is
// cut back off the log, which is then positioned at its end, so the graph
// keeps taking batches and the next record lands right after the last
// acknowledged one. Were the file left positioned past the cut, the next
// record would follow a hole that replay reads as a torn tail, dropping it.
func TestTakenBackAppendKeepsGoing(t *testing.T) {
	path := walPath(t)
	g, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := g.Apply(chainBatch(0, 4, 0)); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	// A write cut part-way: a prefix of a record past the log's end.
	if _, err := g.w.f.Write([]byte("torn record")); err != nil {
		t.Fatal(err)
	}
	if err := g.w.truncate(); err != nil {
		t.Fatalf("taking the torn record back: %v", err)
	}
	if _, err := g.Apply(chainBatch(4, 6, 5)); err != nil {
		t.Fatalf("Apply after a taken-back append: %v", err)
	}
	acked := g.Info().Events
	g.Close()
	g2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer g2.Close()
	if got, rec := g2.Info().Events, g2.LastRecovery(); got != acked || rec.Truncated {
		t.Fatalf("reopened with %d events (recovery %+v), %d acknowledged", got, rec, acked)
	}
}
