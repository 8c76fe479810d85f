package tgraph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"graphite/internal/codec"
	ival "graphite/internal/interval"
)

// Snapshot format ("GSNAP", extension .gsn): a sectioned, offset-indexed,
// mmap-friendly layout for immutable temporal graphs.
//
//	header   : magic "GSNAP\n" | u16 version | u32 section count | u32 dir CRC
//	directory: per section  u32 id | u32 CRC32(payload) | u64 offset | u64 length
//	sections : 8-byte aligned payloads, zero-padded between
//
// Fixed-width integers are little-endian. The entity and property sections
// are delta-compressed varint streams; the adjacency sections are an
// interval-CSR (offset array + edge-index array) and the endpoint/index
// sections are plain int32 arrays, all of which OpenMapped aliases directly
// out of the mapping on little-endian hosts so pages are only faulted in
// when an algorithm touches them. The directory CRC and every section CRC
// are verified on open.
//
// Versioning rule: readers accept exactly the versions they know; a larger
// version yields ErrSnapshotVersion, never a partial parse. Any structural
// inconsistency — truncation, CRC mismatch, out-of-range index, invalid
// lifespan — yields ErrSnapshotCorrupt.
const snapshotMagic = "GSNAP\n"

// SnapshotVersion is the current on-disk snapshot format version.
const SnapshotVersion = 1

const (
	snapHeaderLen   = 16
	snapDirEntryLen = 24
	snapMaxSections = 64
)

// Section identifiers, in file order.
const (
	secMeta   uint32 = 1  // counts, lifespan hull, horizon
	secVerts  uint32 = 2  // vertex ids + lifespans (delta varints)
	secEdges  uint32 = 3  // edge ids + lifespans (delta varints)
	secEnds   uint32 = 4  // srcIdx[ne] ++ dstIdx[ne], int32
	secOut    uint32 = 5  // out-CSR: offsets u32[nv+1] ++ edge indices int32[ne]
	secIn     uint32 = 6  // in-CSR: same shape
	secVIndex uint32 = 7  // vertex indices sorted by id, int32[nv]
	secVProps uint32 = 8  // vertex properties (label dict + delta varints)
	secEProps uint32 = 9  // edge properties
	secExtra  uint32 = 10 // opaque application payload (optional)
)

var (
	// ErrUnknownFormat reports a file whose leading bytes match none of the
	// text or snapshot graph encodings.
	ErrUnknownFormat = errors.New("tgraph: unknown graph format")
	// ErrSnapshotCorrupt reports a snapshot file that is truncated,
	// fails a CRC, or is structurally inconsistent.
	ErrSnapshotCorrupt = errors.New("tgraph: corrupt snapshot")
	// ErrSnapshotVersion reports a snapshot written by a newer format
	// version than this reader understands.
	ErrSnapshotVersion = errors.New("tgraph: unsupported snapshot version")
)

// timeEnc encodes a time-point that may be Infinity as a uvarint: 0 is
// Infinity, any finite t is t+1.
func timeEnc(t ival.Time) uint64 {
	if t == ival.Infinity {
		return 0
	}
	return uint64(t) + 1
}

// appendLifespan appends an interval as (zigzag start delta, duration)
// where duration 0 means unbounded.
func appendLifespan(buf []byte, iv ival.Interval, prevStart ival.Time) []byte {
	buf = binary.AppendVarint(buf, iv.Start-prevStart)
	if iv.End == ival.Infinity {
		return binary.AppendUvarint(buf, 0)
	}
	return binary.AppendUvarint(buf, uint64(iv.End-iv.Start))
}

// readTimePoint pops a time-point timeEnc wrote.
func readTimePoint(r *codec.Reader) ival.Time {
	if v := r.Max("time-point", math.MaxInt64+1); v != 0 {
		return ival.Time(v - 1)
	}
	return ival.Infinity
}

// readLifespan pops a lifespan appendLifespan wrote and validates it.
func readLifespan(r *codec.Reader, prevStart ival.Time) ival.Interval {
	start := prevStart + r.Varint()
	iv := ival.Interval{Start: start, End: ival.Infinity}
	if dur := r.Uvarint(); dur != 0 {
		if start < 0 || dur >= uint64(ival.Infinity)-uint64(start) {
			r.Fail("interval [%d, +%d) overflows the time domain", start, dur)
			return ival.Empty
		}
		iv.End = start + ival.Time(dur)
	}
	if !iv.Valid() {
		r.Fail("invalid lifespan %v", iv)
	}
	if r.Err != nil {
		return ival.Empty
	}
	return iv
}

// sectionKind is what a malformed field of section name wraps.
func sectionKind(name string) error { return fmt.Errorf("%w: section %s", ErrSnapshotCorrupt, name) }

// readEntities pops a vertex or edge section's n (id, lifespan) records, ids
// and starts delta-coded, handing each to set.
func readEntities(sec []byte, name string, n int, set func(i int, id int64, life ival.Interval)) error {
	r := codec.NewReader(sec, sectionKind(name))
	prevID, prevStart := int64(0), ival.Time(0)
	for i := 0; i < n && r.Err == nil; i++ {
		id := prevID + r.Varint()
		life := readLifespan(&r, prevStart)
		set(i, id, life)
		prevID, prevStart = id, life.Start
	}
	return r.Done()
}

func align8(n int) int { return (n + 7) &^ 7 }

// EncodeSnapshot serializes the graph (plus an optional opaque extra
// payload) into the snapshot format. The encoding is deterministic: equal
// graphs produce byte-identical snapshots.
func EncodeSnapshot(g *Graph, extra []byte) []byte {
	type section struct {
		id   uint32
		data []byte
	}
	secs := []section{
		{secMeta, encodeSnapMeta(g)},
		{secVerts, encodeSnapVertices(g)},
		{secEdges, encodeSnapEdges(g)},
		{secEnds, encodeSnapEnds(g)},
		{secOut, encodeSnapCSR(g.out, g.NumEdges())},
		{secIn, encodeSnapCSR(g.in, g.NumEdges())},
		{secVIndex, encodeSnapVIndex(g)},
		{secVProps, encodeSnapProps(len(g.vertices), func(i int) Props { return g.vertices[i].Props })},
		{secEProps, encodeSnapProps(len(g.edges), func(i int) Props { return g.edges[i].Props })},
	}
	if extra != nil {
		secs = append(secs, section{secExtra, extra})
	}

	dirEnd := snapHeaderLen + snapDirEntryLen*len(secs)
	offset := align8(dirEnd)
	total := offset
	offsets := make([]int, len(secs))
	for i, s := range secs {
		offsets[i] = total
		total = align8(total + len(s.data))
	}
	// The final section needs no tail padding.
	total = offsets[len(secs)-1] + len(secs[len(secs)-1].data)

	out := make([]byte, total)
	copy(out, snapshotMagic)
	binary.LittleEndian.PutUint16(out[6:], SnapshotVersion)
	binary.LittleEndian.PutUint32(out[8:], uint32(len(secs)))
	for i, s := range secs {
		e := out[snapHeaderLen+snapDirEntryLen*i:]
		binary.LittleEndian.PutUint32(e, s.id)
		binary.LittleEndian.PutUint32(e[4:], crc32.ChecksumIEEE(s.data))
		binary.LittleEndian.PutUint64(e[8:], uint64(offsets[i]))
		binary.LittleEndian.PutUint64(e[16:], uint64(len(s.data)))
		copy(out[offsets[i]:], s.data)
	}
	crc := crc32.ChecksumIEEE(out[:12])
	crc = crc32.Update(crc, crc32.IEEETable, out[snapHeaderLen:dirEnd])
	binary.LittleEndian.PutUint32(out[12:], crc)
	return out
}

func encodeSnapMeta(g *Graph) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(g.vertices)))
	buf = binary.AppendUvarint(buf, uint64(len(g.edges)))
	buf = binary.AppendUvarint(buf, uint64(g.lifespan.Start))
	buf = binary.AppendUvarint(buf, timeEnc(g.lifespan.End))
	buf = binary.AppendUvarint(buf, uint64(g.Horizon()))
	return buf
}

func encodeSnapVertices(g *Graph) []byte {
	var buf []byte
	prevID, prevStart := int64(0), ival.Time(0)
	for i := range g.vertices {
		v := &g.vertices[i]
		buf = binary.AppendVarint(buf, int64(v.ID)-prevID)
		buf = appendLifespan(buf, v.Lifespan, prevStart)
		prevID, prevStart = int64(v.ID), v.Lifespan.Start
	}
	return buf
}

func encodeSnapEdges(g *Graph) []byte {
	var buf []byte
	prevID, prevStart := int64(0), ival.Time(0)
	for i := range g.edges {
		e := &g.edges[i]
		buf = binary.AppendVarint(buf, int64(e.ID)-prevID)
		buf = appendLifespan(buf, e.Lifespan, prevStart)
		prevID, prevStart = int64(e.ID), e.Lifespan.Start
	}
	return buf
}

func encodeSnapEnds(g *Graph) []byte {
	buf := make([]byte, 8*len(g.edges))
	for i, s := range g.srcIdx {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(s))
	}
	half := 4 * len(g.edges)
	for i, d := range g.dstIdx {
		binary.LittleEndian.PutUint32(buf[half+4*i:], uint32(d))
	}
	return buf
}

func encodeSnapCSR(rows [][]int32, ne int) []byte {
	nv := len(rows)
	buf := make([]byte, 4*(nv+1)+4*ne)
	off := uint32(0)
	for i, row := range rows {
		binary.LittleEndian.PutUint32(buf[4*i:], off)
		off += uint32(len(row))
	}
	binary.LittleEndian.PutUint32(buf[4*nv:], off)
	k := 4 * (nv + 1)
	for _, row := range rows {
		for _, ei := range row {
			binary.LittleEndian.PutUint32(buf[k:], uint32(ei))
			k += 4
		}
	}
	return buf
}

func encodeSnapVIndex(g *Graph) []byte {
	buf := make([]byte, 4*len(g.vsorted))
	for i, p := range g.vsorted {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(p))
	}
	return buf
}

// snapPropChunkOwners is the number of property owners per chunk in the
// props sections. Chunks are independently decodable — each carries its own
// byte length, owner count and entry count in the chunk directory, and the
// owner-index delta base restarts at every chunk boundary — which is what
// lets the decoder rebuild property maps on all cores at once and presize
// each chunk's entry slab exactly.
const snapPropChunkOwners = 2048

func encodeSnapProps(n int, props func(i int) Props) []byte {
	// Global label dictionary, sorted for determinism.
	seen := map[string]struct{}{}
	for i := 0; i < n; i++ {
		for label := range props(i).All() {
			seen[label] = struct{}{}
		}
	}
	dict := make([]string, 0, len(seen))
	for label := range seen {
		dict = append(dict, label)
	}
	sort.Strings(dict)
	dictIdx := make(map[string]uint64, len(dict))
	buf := binary.AppendUvarint(nil, uint64(len(dict)))
	for i, label := range dict {
		dictIdx[label] = uint64(i)
		buf = binary.AppendUvarint(buf, uint64(len(label)))
		buf = append(buf, label...)
	}

	owners := 0
	for i := 0; i < n; i++ {
		if props(i).Len() > 0 {
			owners++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(owners))

	// Owner records, split into chunks of snapPropChunkOwners: a directory
	// of (byte length, owner count, label-run count, entry count) rows
	// followed by the concatenated chunk payloads.
	type chunkMeta struct{ bytes, owners, runs, entries int }
	var (
		chunks     []chunkMeta
		payload    []byte
		cur        chunkMeta
		chunkStart int
	)
	flush := func() {
		if cur.owners == 0 {
			return
		}
		cur.bytes = len(payload) - chunkStart
		chunks = append(chunks, cur)
		cur = chunkMeta{}
		chunkStart = len(payload)
	}
	prev := -1
	for i := 0; i < n; i++ {
		p := props(i)
		if p.Len() == 0 {
			continue
		}
		payload = binary.AppendUvarint(payload, uint64(i-prev))
		prev = i
		payload = binary.AppendUvarint(payload, uint64(p.Len()))
		for label, entries := range p.All() {
			payload = binary.AppendUvarint(payload, dictIdx[label])
			payload = binary.AppendUvarint(payload, uint64(len(entries)))
			prevStart := ival.Time(0)
			for _, e := range entries {
				payload = appendLifespan(payload, e.Interval, prevStart)
				payload = binary.AppendVarint(payload, e.Value)
				prevStart = e.Interval.Start
			}
			cur.entries += len(entries)
		}
		cur.runs += p.Len()
		cur.owners++
		if cur.owners == snapPropChunkOwners {
			flush()
			prev = -1 // delta base restarts with the next chunk
		}
	}
	flush()

	buf = binary.AppendUvarint(buf, uint64(len(chunks)))
	for _, c := range chunks {
		buf = binary.AppendUvarint(buf, uint64(c.bytes))
		buf = binary.AppendUvarint(buf, uint64(c.owners))
		buf = binary.AppendUvarint(buf, uint64(c.runs))
		buf = binary.AppendUvarint(buf, uint64(c.entries))
	}
	return append(buf, payload...)
}

// WriteSnapshotFile serializes the graph to a snapshot (.gsn) file through
// codec.WriteFile: a graph mapped from path keeps its old bytes.
func WriteSnapshotFile(path string, g *Graph) error {
	return codec.WriteFile(path, EncodeSnapshot(g, nil))
}

// ReadSnapshot parses a snapshot from a reader, verifying all CRCs. The
// returned graph owns its memory (nothing stays aliased to the input).
func ReadSnapshot(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("tgraph: snapshot read: %w", err)
	}
	g, _, err := decodeSnapshot(data)
	return g, err
}

// decodeSnapshot parses a complete snapshot image. Integer arrays are
// aliased into data on little-endian hosts, so the caller must keep data
// alive (and unmodified) for the life of the returned graph. The returned
// extra slice aliases data as well.
func decodeSnapshot(data []byte) (*Graph, []byte, error) {
	fail := func(format string, args ...any) (*Graph, []byte, error) {
		return nil, nil, fmt.Errorf("%w: %s", ErrSnapshotCorrupt, fmt.Sprintf(format, args...))
	}
	if len(data) < snapHeaderLen {
		return fail("file is %d bytes, want at least a %d-byte header", len(data), snapHeaderLen)
	}
	if string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, nil, fmt.Errorf("%w: bad magic %q", ErrUnknownFormat, data[:len(snapshotMagic)])
	}
	version := binary.LittleEndian.Uint16(data[6:])
	if version == 0 || version > SnapshotVersion {
		return nil, nil, fmt.Errorf("%w: file version %d, reader supports <= %d", ErrSnapshotVersion, version, SnapshotVersion)
	}
	nsec := binary.LittleEndian.Uint32(data[8:])
	if nsec == 0 || nsec > snapMaxSections {
		return fail("section count %d out of range", nsec)
	}
	dirEnd := snapHeaderLen + snapDirEntryLen*int(nsec)
	if dirEnd > len(data) {
		return fail("directory truncated: need %d bytes, have %d", dirEnd, len(data))
	}
	crc := crc32.ChecksumIEEE(data[:12])
	crc = crc32.Update(crc, crc32.IEEETable, data[snapHeaderLen:dirEnd])
	if got := binary.LittleEndian.Uint32(data[12:]); got != crc {
		return fail("directory CRC mismatch: file says %#x, computed %#x", got, crc)
	}

	type span struct {
		payload []byte
		crc     uint32
	}
	sections := make(map[uint32]span, nsec)
	prevID := uint32(0)
	for i := 0; i < int(nsec); i++ {
		e := data[snapHeaderLen+snapDirEntryLen*i:]
		id := binary.LittleEndian.Uint32(e)
		secCRC := binary.LittleEndian.Uint32(e[4:])
		off := binary.LittleEndian.Uint64(e[8:])
		length := binary.LittleEndian.Uint64(e[16:])
		if id <= prevID {
			return fail("section ids not strictly ascending (%d after %d)", id, prevID)
		}
		prevID = id
		if off%8 != 0 || off < uint64(dirEnd) || off > uint64(len(data)) || length > uint64(len(data))-off {
			return fail("section %d spans [%d, %d+%d) outside the %d-byte file", id, off, off, length, len(data))
		}
		sections[id] = span{payload: data[off : off+length], crc: secCRC}
	}
	section := func(id uint32) ([]byte, error) {
		s, ok := sections[id]
		if !ok {
			return nil, fmt.Errorf("%w: required section %d missing", ErrSnapshotCorrupt, id)
		}
		if got := crc32.ChecksumIEEE(s.payload); got != s.crc {
			return nil, fmt.Errorf("%w: section %d CRC mismatch: directory says %#x, computed %#x", ErrSnapshotCorrupt, id, s.crc, got)
		}
		return s.payload, nil
	}

	metaSec, err := section(secMeta)
	if err != nil {
		return nil, nil, err
	}
	md := codec.NewReader(metaSec, sectionKind("meta"))
	nv, ne := md.Int("|V|"), md.Int("|E|")
	lsStart := md.Max("lifespan start", math.MaxInt64)
	lsEnd := readTimePoint(&md)
	horizon := md.Max("horizon", math.MaxInt64)
	if err := md.Done(); err != nil {
		return nil, nil, err
	}
	lifespan := ival.Interval{Start: ival.Time(lsStart), End: lsEnd}
	if nv > 0 && !lifespan.Valid() {
		return fail("invalid lifespan hull %v", lifespan)
	}

	vertsSec, err := section(secVerts)
	if err != nil {
		return nil, nil, err
	}
	edgesSec, err := section(secEdges)
	if err != nil {
		return nil, nil, err
	}
	endsSec, err := section(secEnds)
	if err != nil {
		return nil, nil, err
	}
	outSec, err := section(secOut)
	if err != nil {
		return nil, nil, err
	}
	inSec, err := section(secIn)
	if err != nil {
		return nil, nil, err
	}
	vindexSec, err := section(secVIndex)
	if err != nil {
		return nil, nil, err
	}
	vpropsSec, err := section(secVProps)
	if err != nil {
		return nil, nil, err
	}
	epropsSec, err := section(secEProps)
	if err != nil {
		return nil, nil, err
	}
	var extra []byte
	if s, ok := sections[secExtra]; ok {
		if got := crc32.ChecksumIEEE(s.payload); got != s.crc {
			return fail("section %d CRC mismatch", secExtra)
		}
		extra = s.payload
	}

	// Fixed-width sections must have exactly the size the meta demands;
	// this also bounds every allocation below by the file size.
	if len(endsSec) != 8*ne {
		return fail("endpoint section is %d bytes, want %d for |E|=%d", len(endsSec), 8*ne, ne)
	}
	csrLen := 4*(nv+1) + 4*ne
	if len(outSec) != csrLen || len(inSec) != csrLen {
		return fail("CSR sections are %d/%d bytes, want %d", len(outSec), len(inSec), csrLen)
	}
	if len(vindexSec) != 4*nv {
		return fail("vindex section is %d bytes, want %d for |V|=%d", len(vindexSec), 4*nv, nv)
	}
	if minRec := 2; nv > len(vertsSec)/minRec+1 || ne > len(edgesSec)/minRec+1 {
		return fail("entity counts exceed stream sizes")
	}

	corruptf := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrSnapshotCorrupt, fmt.Sprintf(format, args...))
	}

	// Entity streams: the two delta-varint scans are independent of each
	// other, so they run concurrently.
	vertices := make([]Vertex, nv)
	edges := make([]Edge, ne)
	var wg sync.WaitGroup
	var vErr, eErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		vErr = readEntities(vertsSec, "vertices", nv, func(i int, id int64, life ival.Interval) {
			vertices[i] = Vertex{ID: VertexID(id), Lifespan: life}
		})
	}()
	go func() {
		defer wg.Done()
		eErr = readEntities(edgesSec, "edges", ne, func(i int, id int64, life ival.Interval) {
			edges[i] = Edge{ID: EdgeID(id), Lifespan: life}
		})
	}()
	wg.Wait()
	if vErr != nil {
		return nil, nil, vErr
	}
	if eErr != nil {
		return nil, nil, eErr
	}

	// Everything below depends only on the decoded entity streams, and each
	// task touches disjoint state (endpoints fill Src/Dst, the props tasks
	// fill Props), so the six tasks run concurrently; the props tasks fan
	// out further across their chunks.
	srcIdx := asInt32s(endsSec[:4*ne], ne)
	dstIdx := asInt32s(endsSec[4*ne:], ne)
	var (
		out, in [][]int32
		vsorted []int32
		errs    [6]error
	)
	run := func(slot int, f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[slot] = f()
		}()
	}
	// Endpoints: referential integrity of edges (Constraint 2).
	run(0, func() error {
		for i := range edges {
			s, d := srcIdx[i], dstIdx[i]
			if s < 0 || int(s) >= nv || d < 0 || int(d) >= nv {
				return corruptf("edge %d endpoints (%d, %d) out of range for |V|=%d", i, s, d, nv)
			}
			if !vertices[s].Lifespan.ContainsInterval(edges[i].Lifespan) || !vertices[d].Lifespan.ContainsInterval(edges[i].Lifespan) {
				return corruptf("edge %d lifespan %v escapes its endpoints' lifespans", i, edges[i].Lifespan)
			}
			edges[i].Src = vertices[s].ID
			edges[i].Dst = vertices[d].ID
		}
		return nil
	})
	run(1, func() (err error) {
		out, err = decodeSnapCSR(outSec, nv, ne, "out")
		return err
	})
	run(2, func() (err error) {
		in, err = decodeSnapCSR(inSec, nv, ne, "in")
		return err
	})
	// Sorted-by-id index: nv strictly ascending ids over in-range indices
	// is necessarily a permutation, and proves id uniqueness.
	run(3, func() error {
		vsorted = asInt32s(vindexSec, nv)
		for k, vi := range vsorted {
			if vi < 0 || int(vi) >= nv {
				return corruptf("vindex entry %d out of range", vi)
			}
			if k > 0 && vertices[vsorted[k-1]].ID >= vertices[vi].ID {
				return corruptf("vindex not strictly ascending by vertex id at position %d", k)
			}
		}
		return nil
	})
	run(4, func() error {
		return decodeSnapProps(vpropsSec, "vprops", nv, func(i int, p Props) error {
			v := &vertices[i]
			for _, entries := range p.All() {
				for _, e := range entries {
					if !v.Lifespan.ContainsInterval(e.Interval) {
						return fmt.Errorf("%w: vertex %d property interval %v escapes lifespan %v", ErrSnapshotCorrupt, v.ID, e.Interval, v.Lifespan)
					}
				}
			}
			v.Props = p
			return nil
		})
	})
	run(5, func() error {
		return decodeSnapProps(epropsSec, "eprops", ne, func(i int, p Props) error {
			e := &edges[i]
			for _, entries := range p.All() {
				for _, pe := range entries {
					if !e.Lifespan.ContainsInterval(pe.Interval) {
						return fmt.Errorf("%w: edge %d property interval %v escapes lifespan %v", ErrSnapshotCorrupt, e.ID, pe.Interval, e.Lifespan)
					}
				}
			}
			e.Props = p
			return nil
		})
	})
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}

	g := &Graph{
		vertices: vertices,
		edges:    edges,
		vsorted:  vsorted,
		out:      out,
		in:       in,
		srcIdx:   srcIdx,
		dstIdx:   dstIdx,
		lifespan: lifespan,
	}
	g.setHorizon(ival.Time(horizon))
	return g, extra, nil
}

// decodeSnapCSR reconstructs adjacency rows as subslices of the shared
// edge-index array — no per-row allocation.
func decodeSnapCSR(sec []byte, nv, ne int, name string) ([][]int32, error) {
	offsets := asUint32s(sec[:4*(nv+1)], nv+1)
	targets := asInt32s(sec[4*(nv+1):], ne)
	if offsets[0] != 0 || offsets[nv] != uint32(ne) {
		return nil, fmt.Errorf("%w: %s-CSR offsets span [%d, %d], want [0, %d]", ErrSnapshotCorrupt, name, offsets[0], offsets[nv], ne)
	}
	for i := 0; i < nv; i++ {
		if offsets[i] > offsets[i+1] {
			return nil, fmt.Errorf("%w: %s-CSR offsets decrease at vertex %d", ErrSnapshotCorrupt, name, i)
		}
	}
	for _, ei := range targets {
		if ei < 0 || int(ei) >= ne {
			return nil, fmt.Errorf("%w: %s-CSR edge index %d out of range for |E|=%d", ErrSnapshotCorrupt, name, ei, ne)
		}
	}
	rows := make([][]int32, nv)
	for i := 0; i < nv; i++ {
		rows[i] = targets[offsets[i]:offsets[i+1]:offsets[i+1]]
	}
	return rows, nil
}

func decodeSnapProps(sec []byte, name string, n int, assign func(i int, p Props) error) error {
	kind := sectionKind(name)
	d := codec.NewReader(sec, kind)
	ndict := d.Count(1)
	dict := make([]string, 0, ndict)
	for i := 0; i < ndict && d.Err == nil; i++ {
		dict = append(dict, string(d.Field("label")))
		// A strictly ascending dictionary is what makes ascending label
		// indices per owner yield lexicographically sorted Props.
		if k := len(dict); k > 1 && dict[k-2] >= dict[k-1] {
			d.Fail("label dictionary not strictly ascending at entry %d", k-1)
		}
	}
	owners := d.Count(2)
	if owners > n {
		d.Fail("%d property owners for %d entities", owners, n)
	}

	// Chunk directory: (byte length, owner count, label-run count, entry
	// count) per chunk. The shape checks here bound every allocation below
	// by the section size before any chunk payload is touched.
	nchunks := d.Count(4)
	type chunkMeta struct {
		payload                      []byte
		bytes, owners, runs, entries int
	}
	chunks := make([]chunkMeta, 0, nchunks)
	var sumBytes, sumOwners uint64
	for i := 0; i < nchunks && d.Err == nil; i++ {
		nb, no, nr, nent := d.Uvarint(), d.Uvarint(), d.Uvarint(), d.Uvarint()
		avail := uint64(d.Len())
		sumBytes += nb
		sumOwners += no
		switch {
		case sumBytes < nb || sumBytes > avail:
			d.Fail("chunk %d claims %d bytes beyond the section", i, nb)
		case no == 0 || no > nb/2+1 || nr > nb/2+1 || nent > nb/3+1:
			d.Fail("chunk %d shape (%d owners, %d runs, %d entries) impossible in %d bytes", i, no, nr, nent, nb)
		case sumOwners > uint64(owners):
			d.Fail("chunk owner counts exceed the declared %d owners", owners)
		}
		chunks = append(chunks, chunkMeta{bytes: int(nb), owners: int(no), runs: int(nr), entries: int(nent)})
	}
	if sumOwners != uint64(owners) {
		d.Fail("chunk owner counts sum to %d, want %d", sumOwners, owners)
	}
	for i := range chunks {
		chunks[i].payload = d.Bytes(chunks[i].bytes)
	}
	if err := d.Done(); err != nil {
		return err
	}

	// Decode chunks on all cores. Within a chunk, every entry, label and
	// per-label run header lands in one of three exactly-presized slabs,
	// and each owner's Props is a pair of subslices of those slabs — zero
	// per-owner allocations, which is what keeps a mapped open in the
	// milliseconds on prop-heavy graphs. Owner indices are validated
	// against [0, n) per chunk; cross-chunk ordering is checked after the
	// join.
	chunkFirst := make([]int, len(chunks))
	chunkLast := make([]int, len(chunks))
	decodeChunk := func(ci int) error {
		c := chunks[ci]
		cd := codec.NewReader(c.payload, kind)
		slab := make([]PropEntry, 0, c.entries)
		labelSlab := make([]string, 0, c.runs)
		runSlab := make([][]PropEntry, 0, c.runs)
		first, prev := -1, -1
		for o := 0; o < c.owners && cd.Err == nil; o++ {
			delta := cd.Uvarint()
			if delta == 0 || delta > uint64(n) || prev+int(delta) >= n {
				cd.Fail("owner index delta %d escapes [0, %d)", delta, n)
				break
			}
			idx := prev + int(delta)
			prev = idx
			if first < 0 {
				first = idx
			}
			nlabels := cd.Count(2)
			if nlabels == 0 {
				// The writer only emits owners that have properties.
				cd.Fail("property owner %d with no labels", idx)
				break
			}
			lo := len(runSlab)
			prevLabel := -1
			for li := 0; li < nlabels && cd.Err == nil; li++ {
				labelIdx := cd.Uvarint()
				if labelIdx >= uint64(len(dict)) || int(labelIdx) <= prevLabel {
					cd.Fail("label index %d invalid (dict size %d, ascending required)", labelIdx, len(dict))
					break
				}
				prevLabel = int(labelIdx)
				nentries := cd.Count(3)
				off := len(slab)
				prevStart := ival.Time(0)
				for k := 0; k < nentries && cd.Err == nil; k++ {
					iv := readLifespan(&cd, prevStart)
					val := cd.Varint()
					if iv.Start < prevStart {
						cd.Fail("property entries not sorted by start")
					}
					slab = append(slab, PropEntry{Interval: iv, Value: val})
					prevStart = iv.Start
				}
				end := len(slab)
				labelSlab = append(labelSlab, dict[labelIdx])
				runSlab = append(runSlab, slab[off:end:end])
			}
			if cd.Err == nil {
				hi := len(runSlab)
				if err := assign(idx, Props{labels: labelSlab[lo:hi:hi], entries: runSlab[lo:hi:hi]}); err != nil {
					return err
				}
			}
		}
		if len(slab) != c.entries || len(runSlab) != c.runs {
			cd.Fail("chunk decoded %d entries over %d runs, directory says %d over %d", len(slab), len(runSlab), c.entries, c.runs)
		}
		if err := cd.Done(); err != nil {
			return err
		}
		chunkFirst[ci], chunkLast[ci] = first, prev
		return nil
	}

	errs := make([]error, len(chunks))
	if len(chunks) <= 1 {
		for ci := range chunks {
			errs[ci] = decodeChunk(ci)
		}
	} else {
		workers := runtime.GOMAXPROCS(0)
		if workers > len(chunks) {
			workers = len(chunks)
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					ci := int(next.Add(1)) - 1
					if ci >= len(chunks) {
						return
					}
					errs[ci] = decodeChunk(ci)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for ci := 1; ci < len(chunks); ci++ {
		if chunkFirst[ci] <= chunkLast[ci-1] {
			return fmt.Errorf("%w: section %s: chunk %d owner indices overlap chunk %d", ErrSnapshotCorrupt, name, ci, ci-1)
		}
	}
	return nil
}

// Format identifies an on-disk graph encoding.
type Format int

// The encodings ReadAnyFile understands.
const (
	FormatUnknown Format = iota
	FormatText
	FormatSnapshot
)

func (f Format) String() string {
	switch f {
	case FormatText:
		return "text"
	case FormatSnapshot:
		return "snapshot"
	}
	return "unknown"
}

// SniffFormat identifies a graph file's encoding from its leading bytes
// (six suffice). Text files are recognized by starting with a comment,
// whitespace, or a V/E record; anything else is FormatUnknown.
func SniffFormat(head []byte) Format {
	if bytes.HasPrefix(head, []byte(snapshotMagic)) {
		return FormatSnapshot
	}
	trimmed := bytes.TrimLeft(head, " \t\r\n")
	if len(trimmed) == 0 || trimmed[0] == '#' || trimmed[0] == 'V' || trimmed[0] == 'E' {
		return FormatText
	}
	return FormatUnknown
}

// ReadAnyFile loads a graph from the text or snapshot format, sniffing the
// magic header. An unrecognized header yields an ErrUnknownFormat error
// naming the sniffed bytes and the snapshot magic.
func ReadAnyFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	head := make([]byte, len(snapshotMagic))
	n, _ := io.ReadFull(f, head)
	head = head[:n]
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	switch SniffFormat(head) {
	case FormatSnapshot:
		return ReadSnapshot(f)
	case FormatText:
		return Read(f)
	}
	return nil, fmt.Errorf("%w: %s starts with %q, which matches neither the text format nor the snapshot magic (%q)",
		ErrUnknownFormat, path, head, snapshotMagic)
}
