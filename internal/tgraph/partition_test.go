package tgraph

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// transitAssign is a deliberately uneven 3-way cut of the 6-vertex transit
// fixture so every shard has both owned and boundary vertices.
var transitAssign = []int32{0, 1, 2, 0, 1, 2}

// roundTripMetas are the metas TestPartitionMetaRoundTrip encodes and
// FuzzDecodePartitionMeta starts from.
var roundTripMetas = []*PartitionMeta{
	{Shard: 1, Shards: 3, Vertices: 6, Edges: 9, Assign: transitAssign},
	{Shard: -1, Shards: 3, Vertices: 6, Edges: 9, Assign: transitAssign},
	{Shard: 0, Shards: 1, Vertices: 0, Edges: 0, Assign: []int32{}},
}

func TestPartitionMetaRoundTrip(t *testing.T) {
	for _, m := range roundTripMetas {
		got, err := DecodePartitionMeta(EncodePartitionMeta(m))
		if err != nil {
			t.Fatalf("round trip %+v: %v", m, err)
		}
		if got.Shard != m.Shard || got.Shards != m.Shards || got.Vertices != m.Vertices || got.Edges != m.Edges {
			t.Errorf("round trip: got %+v, want %+v", got, m)
		}
		for i := range m.Assign {
			if got.Assign[i] != m.Assign[i] {
				t.Errorf("assign[%d] = %d, want %d", i, got.Assign[i], m.Assign[i])
			}
		}
	}
}

func TestPartitionMetaTorture(t *testing.T) {
	good := EncodePartitionMeta(&PartitionMeta{Shard: 1, Shards: 3, Vertices: 6, Edges: 9, Assign: transitAssign})
	cases := map[string][]byte{
		"nil":          nil,
		"bad magic":    append([]byte("NOPE99\n"), good[7:]...),
		"truncated":    good[:len(good)-3],
		"trailing":     append(append([]byte{}, good...), 0xff),
		"plain extra":  []byte("some other subsystem's payload"),
		"shard of 0":   EncodePartitionMeta(&PartitionMeta{Shard: 0, Shards: 0, Vertices: 0, Edges: 0}),
		"shard too hi": EncodePartitionMeta(&PartitionMeta{Shard: 5, Shards: 3, Vertices: 0, Edges: 0}),
		"assign range": EncodePartitionMeta(&PartitionMeta{Shard: 0, Shards: 2, Vertices: 1, Edges: 0, Assign: []int32{7}}),
	}
	for name, blob := range cases {
		if _, err := DecodePartitionMeta(blob); !errors.Is(err, ErrPartitionMeta) {
			t.Errorf("%s: err = %v, want ErrPartitionMeta", name, err)
		}
	}
}

// TestPartitionMetaAllocationIsBounded: a meta's |V| sizes its assignment, so
// a count its bytes cannot hold must fail before it allocates. These 15 bytes
// declare 2³⁰ vertices and carry no assignment.
func TestPartitionMetaAllocationIsBounded(t *testing.T) {
	blob := EncodePartitionMeta(&PartitionMeta{Shard: 0, Shards: 2, Vertices: 1 << 30})
	if len(blob) != 15 {
		t.Fatalf("meta is %d bytes, want 15", len(blob))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodePartitionMeta(blob)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrPartitionMeta) {
		t.Fatalf("err = %v, want ErrPartitionMeta", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("rejecting the meta allocated %d bytes, want under 1 MiB", d)
	}
}

// FuzzDecodePartitionMeta: every input is rejected, or re-encodes to a meta
// that decodes equal.
func FuzzDecodePartitionMeta(f *testing.F) {
	for _, m := range roundTripMetas {
		f.Add(EncodePartitionMeta(m))
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		m, err := DecodePartitionMeta(blob)
		if err != nil {
			return
		}
		again, err := DecodePartitionMeta(EncodePartitionMeta(m))
		if err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("%+v re-encodes to %+v (%v)", m, again, err)
		}
	})
}

// TestExtractPartitionStructure checks the partition invariants the cluster
// relies on: full vertex set in original order, owned vertices with exact
// adjacency, edge order a subsequence of the original, inherited horizon.
func TestExtractPartitionStructure(t *testing.T) {
	g := TransitExample()
	for shard := 0; shard < 3; shard++ {
		pg, err := ExtractPartition(g, transitAssign, shard)
		if err != nil {
			t.Fatalf("shard %d: %v", shard, err)
		}
		if pg.NumVertices() != g.NumVertices() {
			t.Fatalf("shard %d: |V| = %d, want %d (partitions keep every vertex)",
				shard, pg.NumVertices(), g.NumVertices())
		}
		for i := range g.Vertices() {
			a, b := g.VertexAt(i), pg.VertexAt(i)
			if a.ID != b.ID || a.Lifespan != b.Lifespan {
				t.Fatalf("shard %d vertex %d: %v != %v", shard, i, b, a)
			}
		}
		if pg.Horizon() != g.Horizon() {
			t.Errorf("shard %d: horizon %v, want inherited %v", shard, pg.Horizon(), g.Horizon())
		}
		if pg.Lifespan() != g.Lifespan() {
			t.Errorf("shard %d: lifespan %v, want %v", shard, pg.Lifespan(), g.Lifespan())
		}
		// Every kept edge touches the shard; edge IDs appear in original
		// relative order.
		lastID := EdgeID(-1 << 62)
		for i := range pg.Edges() {
			e := pg.Edge(i)
			if transitAssign[pg.SrcIndex(i)] != int32(shard) && transitAssign[pg.DstIndex(i)] != int32(shard) {
				t.Errorf("shard %d keeps foreign edge %d", shard, e.ID)
			}
			if e.ID <= lastID {
				t.Errorf("shard %d: edge order not preserved at %d", shard, e.ID)
			}
			lastID = e.ID
		}
		// Owned vertices keep their complete adjacency, in order.
		for v := 0; v < g.NumVertices(); v++ {
			if transitAssign[v] != int32(shard) {
				continue
			}
			for dir, lists := range [][2][]int32{{g.OutEdges(v), pg.OutEdges(v)}, {g.InEdges(v), pg.InEdges(v)}} {
				full, part := lists[0], lists[1]
				if len(full) != len(part) {
					t.Fatalf("shard %d vertex %d dir %d: %d edges, want %d", shard, v, dir, len(part), len(full))
				}
				for j := range full {
					if g.Edge(int(full[j])).ID != pg.Edge(int(part[j])).ID {
						t.Errorf("shard %d vertex %d dir %d: adjacency order differs at %d", shard, v, dir, j)
					}
				}
			}
		}
	}
	if _, err := ExtractPartition(g, transitAssign[:3], 0); !errors.Is(err, ErrPartitionMismatch) {
		t.Errorf("short assignment: err = %v, want ErrPartitionMismatch", err)
	}
}

// TestPartitionFileRoundTrip holds both readers of a partition file, the
// mapping and the heap read, to the graph and meta written, and to the same
// refusals of a damaged or foreign file.
func TestPartitionFileRoundTrip(t *testing.T) {
	for name, open := range map[string]func(string) (*Mapped, *PartitionMeta, error){
		"mapped": OpenPartition, "read": ReadPartition,
	} {
		t.Run(name, func(t *testing.T) {
			g := TransitExample()
			dir := t.TempDir()
			pg, err := ExtractPartition(g, transitAssign, 1)
			if err != nil {
				t.Fatal(err)
			}
			meta := &PartitionMeta{Shard: 1, Shards: 3, Vertices: g.NumVertices(), Edges: g.NumEdges(), Assign: transitAssign}
			path := filepath.Join(dir, PartitionFileName(1))
			if err := WritePartitionFile(path, pg, meta); err != nil {
				t.Fatal(err)
			}
			m, got, err := open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			if err := Equal(pg, m.Graph); err != nil {
				t.Fatalf("%s partition differs: %v", name, err)
			}
			if got.Shard != 1 || got.Shards != 3 || got.Vertices != 6 {
				t.Fatalf("meta round trip: %+v", got)
			}
			if m.Horizon() != g.Horizon() {
				t.Errorf("%s horizon %v, want %v (stored verbatim)", name, m.Horizon(), g.Horizon())
			}
			if m.Size() <= 0 {
				t.Errorf("%s Size() = %d, want > 0", name, m.Size())
			}

			// Torture: a flipped byte inside the file fails the CRC pass.
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			bad := append([]byte{}, data...)
			bad[len(bad)/2] ^= 0x40
			badPath := filepath.Join(dir, "flipped.gsn")
			if err := os.WriteFile(badPath, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := open(badPath); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Errorf("bit flip: err = %v, want ErrSnapshotCorrupt", err)
			}

			// Torture: truncation fails structurally.
			truncPath := filepath.Join(dir, "trunc.gsn")
			if err := os.WriteFile(truncPath, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := open(truncPath); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Errorf("truncation: err = %v, want ErrSnapshotCorrupt", err)
			}

			// Torture: a plain snapshot with no partition meta is rejected.
			plainPath := filepath.Join(dir, "plain.gsn")
			if err := WriteSnapshotFile(plainPath, g); err != nil {
				t.Fatal(err)
			}
			if _, _, err := open(plainPath); !errors.Is(err, ErrPartitionMeta) {
				t.Errorf("plain snapshot: err = %v, want ErrPartitionMeta", err)
			}

			// Torture: meta |V| disagreeing with the snapshot is a mismatch.
			lying := &PartitionMeta{Shard: 1, Shards: 3, Vertices: 2, Edges: 1, Assign: []int32{1, 0}}
			liePath := filepath.Join(dir, "lie.gsn")
			if err := WritePartitionFile(liePath, pg, lying); err != nil {
				t.Fatal(err)
			}
			if _, _, err := open(liePath); !errors.Is(err, ErrPartitionMismatch) {
				t.Errorf("lying meta: err = %v, want ErrPartitionMismatch", err)
			}
		})
	}
}
