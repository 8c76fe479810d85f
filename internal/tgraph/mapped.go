package tgraph

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"unsafe"
)

// hostLittle reports whether the host is little-endian, the layout the
// snapshot format stores fixed-width integers in. On such hosts the
// decoder aliases integer arrays straight out of the mapping; elsewhere it
// falls back to copying.
var hostLittle = binary.NativeEndian.Uint16([]byte{0x01, 0x02}) == 0x0201

// asInt32s interprets b as n little-endian int32 values, zero-copy when
// the host layout permits.
func asInt32s(b []byte, n int) []int32 {
	if n == 0 {
		return []int32{}
	}
	if hostLittle && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// asUint32s is asInt32s for unsigned values (CSR offsets).
func asUint32s(b []byte, n int) []uint32 {
	if n == 0 {
		return []uint32{}
	}
	if hostLittle && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}

// Mapped is a Graph backed by a read-only memory mapping of a snapshot
// file: the adjacency, endpoint and index arrays alias the mapped pages
// directly, so they are faulted in only when touched. The mapping lives
// until Close, for the life of the process if nobody calls it; after Close
// the graph and every slice its accessors return must not be used. A
// Mapped wrapping an ordinary heap graph (Unmapped, ReadPartition, or
// OpenAnyFile over a text file) has a no-op Close: the collector frees it.
type Mapped struct {
	*Graph
	Extra  []byte // opaque application payload from the extra section, nil if absent
	data   []byte
	mapped bool
}

// Unmapped wraps an in-memory graph in a Mapped handle with a no-op
// Close, for callers that accept either source.
func Unmapped(g *Graph) *Mapped { return &Mapped{Graph: g} }

// Size returns the resident footprint of the graph: the byte length of the
// mapping for snapshot-backed graphs (what the process actually faults in,
// at most), or the heap estimate for in-memory graphs.
func (m *Mapped) Size() int64 {
	if len(m.data) > 0 {
		return int64(len(m.data))
	}
	return m.MemoryFootprint()
}

// Close releases the underlying mapping, if any.
func (m *Mapped) Close() error {
	if m == nil || !m.mapped {
		return nil
	}
	m.mapped = false
	data := m.data
	m.data = nil
	return munmapFile(data)
}

// OpenMapped memory-maps a snapshot (.gsn) file, verifying every section
// CRC before returning. Pages are still loaded lazily; the CRC pass
// touches each page once without decoding the bulk of it.
func OpenMapped(path string) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, mapped, err := mmapFile(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("tgraph: mmap %s: %w", path, err)
	}
	g, extra, err := decodeSnapshot(data)
	if err != nil {
		if mapped {
			munmapFile(data)
		}
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &Mapped{Graph: g, Extra: extra, data: data, mapped: mapped}, nil
}

// OpenAnyFile opens a graph file in either format, memory-mapping a
// snapshot and parsing a text file into the heap. The returned handle's
// Close is a no-op for a text file.
func OpenAnyFile(path string) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	head := make([]byte, len(snapshotMagic))
	n, _ := io.ReadFull(f, head)
	f.Close()
	if SniffFormat(head[:n]) == FormatSnapshot {
		return OpenMapped(path)
	}
	g, err := ReadAnyFile(path)
	if err != nil {
		return nil, err
	}
	return Unmapped(g), nil
}
