package tgraph

import (
	"bytes"
	"testing"
)

// roundTripSeeds are buildArbitrary's (seed, vertices, edges) arguments that
// FuzzFormatRoundTrip starts from and TestTextSnapshotAgree walks.
var roundTripSeeds = []struct {
	seed   uint64
	nv, ne uint8
}{{1, 0, 0}, {7, 40, 120}, {13, 1, 255}, {99, 200, 50}}

// FuzzFormatRoundTrip builds arbitrary valid graphs from fuzzed PRNG
// parameters, encodes them to the snapshot format, decodes, and demands
// full structural equality — the decoded graph must be indistinguishable
// from the in-memory original.
func FuzzFormatRoundTrip(f *testing.F) {
	for _, s := range roundTripSeeds {
		f.Add(s.seed, s.nv, s.ne)
	}
	f.Fuzz(func(t *testing.T, seed uint64, nv, ne uint8) {
		g := buildArbitrary(seed, int(nv), int(ne))
		enc := EncodeSnapshot(g, nil)
		g2, err := ReadSnapshot(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("decode of freshly encoded graph failed: %v", err)
		}
		if err := Equal(g, g2); err != nil {
			t.Fatalf("round trip not identical: %v", err)
		}
		if !bytes.Equal(enc, EncodeSnapshot(g2, nil)) {
			t.Fatal("encoding is not deterministic across a round trip")
		}
	})
}

// FuzzTextRead feeds the text parser — the one decoder of the format people
// write by hand — arbitrary bytes. Nothing may panic, and whatever parses is
// a graph the writer can carry: written back as text it parses again, to an
// Equal graph.
func FuzzTextRead(f *testing.F) {
	var transit bytes.Buffer
	if err := Write(&transit, TransitExample()); err != nil {
		f.Fatal(err)
	}
	f.Add(transit.Bytes())
	f.Add([]byte("# a vertex that never ends, and one that does\nV 1 0 inf\nV 2 3 9\nE 7 1 2 4 8\n"))
	f.Add([]byte("V 5 0 10\nVP 5 colour 2 6 -3\nVP 5 colour 6 inf 4\n"))
	f.Add([]byte("V 1 0 9\nV 2 0 9\nE 1 1 2 0 9\nEP 1 travel-time 0 4 2\nEP 1 travel-time 4 9 3\nEP 1 cost 0 9 1\n"))
	f.Add([]byte("  \n\t# only comments\r\n\n"))
	f.Add([]byte("E 1 1 2 0 5\nV 1 0 5\n")) // an edge before its endpoints
	f.Add([]byte("V 1 5 5\n"))              // an empty lifespan
	f.Add([]byte("V 9223372036854775807 0 9223372036854775807\nX\n"))
	f.Fuzz(func(t *testing.T, text []byte) {
		g, err := Read(bytes.NewReader(text))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := Write(&again, g); err != nil {
			t.Fatalf("write of a parsed graph: %v", err)
		}
		g2, err := Read(bytes.NewReader(again.Bytes()))
		if err != nil {
			t.Fatalf("graph parsed from %q was written as %q, which does not parse: %v", text, again.Bytes(), err)
		}
		if err := Equal(g, g2); err != nil {
			t.Fatalf("graph parsed from %q changed across a write and a read: %v", text, err)
		}
	})
}

// FuzzSnapshotMutation mutates a valid snapshot — XOR-flipping a byte
// and/or truncating — and demands the decoder either returns a typed
// error or an identical graph (padding flips are benign). Panics and
// silently wrong graphs are the failure modes this hunts.
func FuzzSnapshotMutation(f *testing.F) {
	base := EncodeSnapshot(TransitExample(), []byte("extra"))
	f.Add(uint32(0), byte(0xff), uint16(len(base)))
	f.Add(uint32(6), byte(0x01), uint16(len(base)))
	f.Add(uint32(20), byte(0x80), uint16(17))
	f.Add(uint32(100), byte(0x40), uint16(0))
	f.Fuzz(func(t *testing.T, pos uint32, xor byte, cut uint16) {
		mut := bytes.Clone(base)
		if n := int(cut); n < len(mut) {
			mut = mut[:n]
		}
		if len(mut) > 0 {
			mut[int(pos)%len(mut)] ^= xor
		}
		g, err := ReadSnapshot(bytes.NewReader(mut))
		if err != nil {
			if !isTypedSnapshotErr(err) {
				t.Fatalf("untyped error for mutated snapshot: %v", err)
			}
			return
		}
		orig, err2 := ReadSnapshot(bytes.NewReader(base))
		if err2 != nil {
			t.Fatalf("base snapshot stopped decoding: %v", err2)
		}
		if err := Equal(orig, g); err != nil {
			t.Fatalf("mutation (pos %d xor %#x cut %d) silently changed the graph: %v", pos, xor, cut, err)
		}
	})
}
