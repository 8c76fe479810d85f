package tgraph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	ival "graphite/internal/interval"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// buildArbitrary derives a valid graph from a PRNG seed: sparse vertex
// ids, a mix of bounded and unbounded lifespans, multi-label properties.
// Used by both the table tests and the round-trip fuzz target.
func buildArbitrary(seed uint64, nv, ne int) *Graph {
	rng := seed
	next := func() uint64 { // splitmix64
		rng += 0x9e3779b97f4a7c15
		z := rng
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	b := NewBuilder(nv, ne)
	ids := make([]VertexID, 0, nv)
	nextID := int64(0)
	for i := 0; i < nv; i++ {
		nextID += int64(next()%1000) + 1 // sparse, strictly ascending ids
		id := VertexID(nextID)
		start := ival.Time(next() % 50)
		life := ival.From(start)
		if next()%3 == 0 {
			life = ival.New(start, start+1+ival.Time(next()%100))
		}
		b.AddVertex(id, life)
		ids = append(ids, id)
		for _, label := range []string{"alpha", "beta", "gamma"} {
			if next()%2 == 0 {
				continue
			}
			at := life.Start + ival.Time(next()%10)
			iv := ival.New(at, at+1+ival.Time(next()%5)).Intersect(life)
			if iv.Valid() {
				b.SetVertexProp(id, label, iv, int64(next()%1000)-500)
			}
		}
	}
	for i := 0; i < ne && nv > 0; i++ {
		src := ids[next()%uint64(nv)]
		dst := ids[next()%uint64(nv)]
		hull := b.vertices[b.vseen[src]].Lifespan.Intersect(b.vertices[b.vseen[dst]].Lifespan)
		if !hull.Valid() {
			continue
		}
		life := hull
		if hull.End != ival.Infinity && next()%2 == 0 {
			life = ival.New(hull.Start, hull.Start+1+ival.Time(uint64(hull.End-hull.Start-1)%(next()%7+1)))
		}
		id := EdgeID(i)
		b.AddEdge(id, src, dst, life)
		if next()%2 == 0 {
			b.SetEdgeProp(id, "weight", life, int64(next()%100))
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("buildArbitrary(%d, %d, %d): %v", seed, nv, ne, err))
	}
	return g
}

func snapshotCases(t *testing.T) map[string]*Graph {
	t.Helper()
	empty := NewBuilder(0, 0).MustBuild()
	single := NewBuilder(1, 0)
	single.AddVertex(42, ival.New(3, 9))
	return map[string]*Graph{
		"transit":   TransitExample(),
		"empty":     empty,
		"single":    single.MustBuild(),
		"arbitrary": buildArbitrary(7, 40, 120),
		"dense":     buildArbitrary(99, 5, 30),
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	for name, g := range snapshotCases(t) {
		t.Run(name, func(t *testing.T) {
			enc := EncodeSnapshot(g, nil)
			g2, err := ReadSnapshot(bytes.NewReader(enc))
			if err != nil {
				t.Fatalf("ReadSnapshot: %v", err)
			}
			if err := Equal(g, g2); err != nil {
				t.Fatalf("round trip not identical: %v", err)
			}
			// Deterministic encoding: re-encoding the decoded graph
			// reproduces the bytes exactly.
			if !bytes.Equal(enc, EncodeSnapshot(g2, nil)) {
				t.Fatal("re-encoding the decoded graph changed the bytes")
			}

			path := filepath.Join(t.TempDir(), "g.gsn")
			if err := WriteSnapshotFile(path, g); err != nil {
				t.Fatalf("WriteSnapshotFile: %v", err)
			}
			for _, open := range []struct {
				name string
				fn   func(string) (*Mapped, error)
			}{{"verified", OpenMapped}, {"any", OpenAnyFile}} {
				m, err := open.fn(path)
				if err != nil {
					t.Fatalf("%s open: %v", open.name, err)
				}
				if err := Equal(g, m.Graph); err != nil {
					t.Errorf("%s mapped graph differs: %v", open.name, err)
				}
				// Id lookups go through the sorted index on mapped graphs.
				for i := 0; i < g.NumVertices(); i++ {
					id := g.VertexAt(i).ID
					if got := m.IndexOf(id); got != i {
						t.Fatalf("%s IndexOf(%d) = %d, want %d", open.name, id, got, i)
					}
					if v := m.Vertex(id); v == nil || v.ID != id {
						t.Fatalf("%s Vertex(%d) lookup failed", open.name, id)
					}
				}
				if m.IndexOf(VertexID(-12345)) != -1 || m.Vertex(VertexID(-12345)) != nil {
					t.Errorf("%s lookup of absent id should miss", open.name)
				}
				if err := m.Close(); err != nil {
					t.Errorf("%s close: %v", open.name, err)
				}
			}
		})
	}
}

func TestSnapshotExtraPayload(t *testing.T) {
	g := TransitExample()
	extra := []byte("application payload \x00\x01\x02")
	enc := EncodeSnapshot(g, extra)
	path := filepath.Join(t.TempDir(), "g.gsn")
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !bytes.Equal(m.Extra, extra) {
		t.Fatalf("extra payload %q != %q", m.Extra, extra)
	}
	if err := Equal(g, m.Graph); err != nil {
		t.Fatalf("graph with extra differs: %v", err)
	}
}

// TestSnapshotGolden pins the on-disk encoding: accidental format drift
// (reordered sections, changed varint scheme, new header fields) fails
// here before it ships. Regenerate deliberately with -update-golden.
func TestSnapshotGolden(t *testing.T) {
	g := TransitExample()
	enc := EncodeSnapshot(g, nil)
	golden := filepath.Join("testdata", "transit.gsn")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (run with -update-golden): %v", err)
	}
	if !bytes.Equal(enc, want) {
		t.Fatalf("encoding drifted from golden file: %d bytes vs %d", len(enc), len(want))
	}

	// Field-level pin of the header and directory.
	if string(want[:6]) != snapshotMagic {
		t.Fatalf("magic %q", want[:6])
	}
	if v := binary.LittleEndian.Uint16(want[6:]); v != SnapshotVersion {
		t.Fatalf("version %d, want %d", v, SnapshotVersion)
	}
	nsec := binary.LittleEndian.Uint32(want[8:])
	if nsec != 9 {
		t.Fatalf("section count %d, want 9 (no extra section)", nsec)
	}
	crc := crc32.ChecksumIEEE(want[:12])
	crc = crc32.Update(crc, crc32.IEEETable, want[snapHeaderLen:snapHeaderLen+snapDirEntryLen*int(nsec)])
	if got := binary.LittleEndian.Uint32(want[12:]); got != crc {
		t.Fatalf("directory CRC %#x, want %#x", got, crc)
	}
	wantIDs := []uint32{secMeta, secVerts, secEdges, secEnds, secOut, secIn, secVIndex, secVProps, secEProps}
	for i, id := range wantIDs {
		e := want[snapHeaderLen+snapDirEntryLen*i:]
		if got := binary.LittleEndian.Uint32(e); got != id {
			t.Fatalf("directory entry %d id %d, want %d", i, got, id)
		}
		off := binary.LittleEndian.Uint64(e[8:])
		length := binary.LittleEndian.Uint64(e[16:])
		if off%8 != 0 {
			t.Errorf("section %d offset %d not 8-byte aligned", id, off)
		}
		if off+length > uint64(len(want)) {
			t.Errorf("section %d out of bounds", id)
		}
		payload := want[off : off+length]
		if got := binary.LittleEndian.Uint32(e[4:]); got != crc32.ChecksumIEEE(payload) {
			t.Errorf("section %d CRC mismatch", id)
		}
		// Fixed-width section sizes for |V|=6, |E|=6.
		switch id {
		case secEnds:
			if length != 48 {
				t.Errorf("ends section %d bytes, want 48", length)
			}
		case secOut, secIn:
			if length != 4*7+4*6 {
				t.Errorf("CSR section %d bytes, want %d", length, 4*7+4*6)
			}
		case secVIndex:
			if length != 24 {
				t.Errorf("vindex section %d bytes, want 24", length)
			}
		}
	}
	// Meta decodes to the fixture's shape.
	g2, err := ReadSnapshot(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("golden decode: %v", err)
	}
	if g2.NumVertices() != 6 || g2.NumEdges() != 6 || g2.Lifespan() != ival.Universe || g2.Horizon() != g.Horizon() {
		t.Fatalf("golden meta decoded to %v horizon %d", g2, g2.Horizon())
	}
}

func isTypedSnapshotErr(err error) bool {
	return errors.Is(err, ErrSnapshotCorrupt) || errors.Is(err, ErrSnapshotVersion) || errors.Is(err, ErrUnknownFormat)
}

func TestSnapshotCorruption(t *testing.T) {
	g := buildArbitrary(13, 30, 80)
	enc := EncodeSnapshot(g, nil)

	t.Run("truncation", func(t *testing.T) {
		for cut := 0; cut < len(enc); cut += 7 {
			_, err := ReadSnapshot(bytes.NewReader(enc[:cut]))
			if err == nil {
				t.Fatalf("truncation to %d bytes accepted", cut)
			}
			if !isTypedSnapshotErr(err) {
				t.Fatalf("truncation to %d bytes: untyped error %v", cut, err)
			}
		}
	})

	t.Run("bad-magic", func(t *testing.T) {
		mut := bytes.Clone(enc)
		mut[0] = 'X'
		_, err := ReadSnapshot(bytes.NewReader(mut))
		if !errors.Is(err, ErrUnknownFormat) {
			t.Fatalf("bad magic: %v, want ErrUnknownFormat", err)
		}
	})

	t.Run("future-version", func(t *testing.T) {
		mut := bytes.Clone(enc)
		binary.LittleEndian.PutUint16(mut[6:], SnapshotVersion+1)
		_, err := ReadSnapshot(bytes.NewReader(mut))
		if !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("future version: %v, want ErrSnapshotVersion", err)
		}
	})

	t.Run("bad-section-crc", func(t *testing.T) {
		// Flip a byte inside the first section payload.
		mut := bytes.Clone(enc)
		off := binary.LittleEndian.Uint64(mut[snapHeaderLen+8:])
		mut[off] ^= 0xff
		_, err := ReadSnapshot(bytes.NewReader(mut))
		if !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("payload flip: %v, want ErrSnapshotCorrupt", err)
		}
	})

	t.Run("every-byte-flip", func(t *testing.T) {
		// Any single corrupted byte must yield a typed error or leave the
		// decoded graph identical (flips in alignment padding are benign).
		for pos := range enc {
			mut := bytes.Clone(enc)
			mut[pos] ^= 0xff
			g2, err := ReadSnapshot(bytes.NewReader(mut))
			if err == nil {
				if eq := Equal(g, g2); eq != nil {
					t.Fatalf("flip at byte %d silently changed the graph: %v", pos, eq)
				}
				continue
			}
			if !isTypedSnapshotErr(err) {
				t.Fatalf("flip at byte %d: untyped error %v", pos, err)
			}
		}
	})
}

// TestTextSnapshotAgree holds the two on-disk formats to each other through
// the graph they both carry: the generator's unbounded lifespans, sparse ids
// and multi-label properties survive a text write and read, and a snapshot
// encode and decode, as the same graph.
func TestTextSnapshotAgree(t *testing.T) {
	for _, s := range roundTripSeeds {
		t.Run(fmt.Sprintf("seed%d", s.seed), func(t *testing.T) {
			g := buildArbitrary(s.seed, int(s.nv), int(s.ne))
			var text bytes.Buffer
			if err := Write(&text, g); err != nil {
				t.Fatal(err)
			}
			fromText, err := Read(&text)
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			if err := Equal(g, fromText); err != nil {
				t.Errorf("text round trip: %v", err)
			}
			fromSnap, err := ReadSnapshot(bytes.NewReader(EncodeSnapshot(g, nil)))
			if err != nil {
				t.Fatalf("ReadSnapshot: %v", err)
			}
			if err := Equal(g, fromSnap); err != nil {
				t.Errorf("snapshot round trip: %v", err)
			}
			if err := Equal(fromText, fromSnap); err != nil {
				t.Errorf("the two formats disagree: %v", err)
			}
		})
	}
}

func TestSniffFormat(t *testing.T) {
	cases := []struct {
		head string
		want Format
	}{
		{snapshotMagic, FormatSnapshot},
		{"GRTG1\n", FormatUnknown}, // the retired binary format's magic
		{"# comment\n", FormatText},
		{"V 1 0 5\n", FormatText},
		{"E 1 1 2 0 5\n", FormatText},
		{"  \n\tV 1 0 5", FormatText},
		{"", FormatText},
		{"\x7fELF", FormatUnknown},
		{"GSNAX\n", FormatUnknown},
		{"PK\x03\x04", FormatUnknown},
	}
	for _, c := range cases {
		if got := SniffFormat([]byte(c.head)); got != c.want {
			t.Errorf("SniffFormat(%q) = %v, want %v", c.head, got, c.want)
		}
	}
}

func TestReadAnyFileAllFormats(t *testing.T) {
	g := TransitExample()
	dir := t.TempDir()

	write := map[string]func(string, *Graph) error{
		"text":     WriteFile,
		"snapshot": WriteSnapshotFile,
	}
	for name, fn := range write {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name+".graph")
			if err := fn(path, g); err != nil {
				t.Fatal(err)
			}
			g2, err := ReadAnyFile(path)
			if err != nil {
				t.Fatalf("ReadAnyFile: %v", err)
			}
			if err := Equal(g, g2); err != nil {
				t.Fatalf("loaded graph differs: %v", err)
			}
		})
	}

	// The error names the sniffed bytes and the known magic, so a mis-shipped
	// file — or one in the retired binary format — is diagnosable from the
	// message alone.
	for name, content := range map[string]string{
		"garbage": "\x7fELF\x02\x01junk",
		"retired": "GRTG1\n\x02\x01junk",
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name+".bin")
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := ReadAnyFile(path)
			if !errors.Is(err, ErrUnknownFormat) {
				t.Fatalf("%v, want ErrUnknownFormat", err)
			}
			for _, want := range []string{strconv.Quote(content[:6]), "GSNAP"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %s", err, want)
				}
			}
		})
	}
}
