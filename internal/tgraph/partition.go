package tgraph

// Per-shard graph partitions: an induced subgraph per worker so a cluster
// worker maps O(V + E/N) bytes instead of the whole graph. A partition keeps
// the FULL vertex set in the original dense order — vertex indices are the
// cluster's global message addresses and the partitioner's domain, so they
// must agree bit-for-bit across every process — but only the edges incident
// to the shard's owned vertices. Owned vertices therefore see their complete
// out- and in-adjacency (scatter and gather are exact), and boundary
// vertices (owned elsewhere, an endpoint here) resolve as scatter targets.
//
// Partition identity travels in the snapshot's extra section as a
// PartitionMeta: which shard this file is, how many shards the cut has, and
// the full vertex→shard assignment so every process reconstructs the exact
// same partitioner without recomputing work weights from a partial graph.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"slices"

	"graphite/internal/codec"
)

// Partition file layout inside a directory produced by WritePartitionFile
// callers (cluster.WritePartitions, graphite-partition): the untrimmed
// graph plus one induced subgraph per shard.
const PartitionFullName = "full.gsn"

// PartitionFileName returns the file name of one shard's partition.
func PartitionFileName(shard int) string { return fmt.Sprintf("part-%03d.gsn", shard) }

var (
	// ErrPartitionMeta reports a malformed or missing partition meta
	// section (truncated, bad magic, inconsistent counts).
	ErrPartitionMeta = errors.New("tgraph: malformed partition meta")
	// ErrPartitionMismatch reports a structurally valid partition that does
	// not match the request (wrong shard, wrong shard count, wrong graph).
	ErrPartitionMismatch = errors.New("tgraph: partition mismatch")
)

// partitionMagic guards the extra section: a plain .gsn snapshot (nil
// extra, or an extra written by another subsystem) is cleanly rejected.
const partitionMagic = "GPART1\n"

// PartitionMeta identifies one partition file of a sharded graph cut.
type PartitionMeta struct {
	Shard    int     // this file's shard, or -1 for the full-graph copy
	Shards   int     // number of shards in the cut
	Vertices int     // full-graph |V| (partitions keep every vertex)
	Edges    int     // full-graph |E| before trimming
	Assign   []int32 // vertex index -> owning shard, len == Vertices
}

// Owned returns how many vertices the cut assigns to shard.
func (m *PartitionMeta) Owned(shard int) int {
	n := 0
	for _, s := range m.Assign {
		if int(s) == shard {
			n++
		}
	}
	return n
}

// Partitioner adapts the stored assignment to the engine's partitioner
// signature. Out-of-range vertices fall back to the modulo rule, matching
// engine.PartitionBalanced.
func (m *PartitionMeta) Partitioner() func(vertex, numWorkers int) int {
	assign := m.Assign
	return func(v, n int) int {
		if v < 0 || v >= len(assign) {
			return ((v % n) + n) % n
		}
		return int(assign[v])
	}
}

// EncodePartitionMeta serializes meta for a snapshot's extra section.
func EncodePartitionMeta(m *PartitionMeta) []byte {
	buf := make([]byte, 0, len(partitionMagic)+5*binary.MaxVarintLen64+len(m.Assign))
	buf = append(buf, partitionMagic...)
	buf = binary.AppendVarint(buf, int64(m.Shard))
	buf = binary.AppendUvarint(buf, uint64(m.Shards))
	buf = binary.AppendUvarint(buf, uint64(m.Vertices))
	buf = binary.AppendUvarint(buf, uint64(m.Edges))
	for _, s := range m.Assign {
		buf = binary.AppendUvarint(buf, uint64(s))
	}
	return buf
}

// DecodePartitionMeta parses a partition meta blob (a Mapped.Extra). The
// snapshot layer has already CRC-checked the bytes; this validates the
// structure: magic, bounds, and a complete in-range assignment.
func DecodePartitionMeta(extra []byte) (*PartitionMeta, error) {
	if len(extra) < len(partitionMagic) || string(extra[:len(partitionMagic)]) != partitionMagic {
		return nil, fmt.Errorf("%w: missing %q header", ErrPartitionMeta, partitionMagic[:len(partitionMagic)-1])
	}
	r := codec.NewReader(extra[len(partitionMagic):], ErrPartitionMeta)
	// Each assignment takes at least a byte, so the bytes left bound |V|.
	m := &PartitionMeta{Shard: int(r.Varint()), Shards: r.Int("shard count"), Vertices: r.Count(1), Edges: r.Int("|E|")}
	if m.Shards <= 0 || m.Shard < -1 || m.Shard >= m.Shards {
		r.Fail("shard %d of %d", m.Shard, m.Shards)
	}
	m.Assign = make([]int32, m.Vertices)
	for i := range m.Assign {
		m.Assign[i] = int32(r.Max("assigned shard", uint64(m.Shards-1)))
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// ExtractPartition builds shard's induced subgraph of g under assign: every
// vertex (same dense order, same lifespans and properties), but only the
// edges with an endpoint owned by shard, in the original edge order so
// adjacency lists — and therefore scatter order and message order — are a
// subsequence of the full graph's. The partition inherits g's lifespan hull
// (vertex-derived, identical by construction) and its time horizon, which
// would otherwise shrink with the dropped edges and desynchronize
// horizon-dependent algorithms across workers.
//
// A subgraph of a valid graph is valid, so nothing is re-checked. The
// partition shares g's vertex table, property sets and id map (immutable
// heap objects, and EncodeSnapshot copies them into the file anyway); its
// edge table, endpoint indices and sorted index are its own, so like a slice
// it holds nothing a mapped g loses on Close.
func ExtractPartition(g *Graph, assign []int32, shard int) (*Graph, error) {
	if len(assign) != g.NumVertices() {
		return nil, fmt.Errorf("%w: assignment covers %d vertices, graph has %d",
			ErrPartitionMismatch, len(assign), g.NumVertices())
	}
	touches := func(i int) bool {
		return int(assign[g.srcIdx[i]]) == shard || int(assign[g.dstIdx[i]]) == shard
	}
	kept := 0
	for i := range g.edges {
		if touches(i) {
			kept++
		}
	}
	edges := make([]Edge, 0, kept)
	ends := make([]int32, 2*kept)
	srcIdx, dstIdx := ends[:0:kept], ends[kept:kept]
	for i := range g.edges {
		if touches(i) {
			edges = append(edges, g.edges[i])
			srcIdx = append(srcIdx, g.srcIdx[i])
			dstIdx = append(dstIdx, g.dstIdx[i])
		}
	}
	pg := assemble(g.vertices, edges, srcIdx, dstIdx, g.vindex, slices.Clone(g.vsorted))
	pg.setHorizon(g.Horizon())
	return pg, nil
}

// WritePartitionFile writes graph g as a .gsn snapshot whose extra section
// carries meta, through codec.WriteFile, so readers never see a torn file.
func WritePartitionFile(path string, g *Graph, meta *PartitionMeta) error {
	return codec.WriteFile(path, EncodeSnapshot(g, EncodePartitionMeta(meta)))
}

// OpenPartition maps a partition file and decodes its meta. The graph
// aliases the mapping; close the returned Mapped when done.
func OpenPartition(path string) (*Mapped, *PartitionMeta, error) {
	m, err := OpenMapped(path)
	if err != nil {
		return nil, nil, err
	}
	return partitionOf(path, m)
}

// ReadPartition is OpenPartition into the heap: the file is read, not
// mapped, so the graph owns its memory, Close is a no-op, and the garbage
// collector frees it with the last value that references it.
func ReadPartition(path string) (*Mapped, *PartitionMeta, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	g, extra, err := decodeSnapshot(data)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return partitionOf(path, &Mapped{Graph: g, Extra: extra})
}

// partitionOf decodes m's partition meta and checks that it covers m's
// vertices, closing m if it does not.
func partitionOf(path string, m *Mapped) (*Mapped, *PartitionMeta, error) {
	meta, err := DecodePartitionMeta(m.Extra)
	if err == nil && meta.Vertices != m.NumVertices() {
		err = fmt.Errorf("%w: meta says |V|=%d, snapshot has %d",
			ErrPartitionMismatch, meta.Vertices, m.NumVertices())
	}
	if err != nil {
		m.Close()
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, meta, nil
}
