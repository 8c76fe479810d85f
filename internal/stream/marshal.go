package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// Accumulator state serialization: the live-graph WAL compactor embeds a
// marshaled accumulator in each snapshot so recovery can resume ingest
// exactly where the snapshot left off — open spans, running property
// values and the event clock all survive — without replaying the
// compacted prefix of the log.
//
// The encoding is deterministic (all maps are emitted in sorted key
// order) and versioned; it is a plain varint stream, no framing, so the
// embedding container is responsible for integrity (the snapshot format's
// section CRCs, in the live-graph case).

// ErrStateCorrupt reports a marshaled accumulator that cannot be decoded.
var ErrStateCorrupt = errors.New("stream: corrupt accumulator state")

const accStateVersion = 1

// MarshalBinary serializes the accumulator's complete ingest state.
func (a *Accumulator) MarshalBinary() ([]byte, error) {
	buf := binary.AppendUvarint(nil, accStateVersion)
	buf = binary.AppendUvarint(buf, uint64(a.events))
	buf = binary.AppendUvarint(buf, uint64(a.now))

	// Entity spans, sorted by id; edges carry their endpoints.
	vids := sortedKeys(a.vspans)
	buf = binary.AppendUvarint(buf, uint64(len(vids)))
	for _, id := range vids {
		buf = binary.AppendVarint(buf, int64(id))
		buf = appendSpan(buf, a.vspans[id])
	}
	eids := sortedKeys(a.espans)
	buf = binary.AppendUvarint(buf, uint64(len(eids)))
	for _, id := range eids {
		buf = binary.AppendVarint(buf, int64(id))
		s := a.espans[id]
		buf = appendSpan(buf, s)
		buf = binary.AppendVarint(buf, int64(s.ends[0]))
		buf = binary.AppendVarint(buf, int64(s.ends[1]))
	}

	// Closed property entries and running values, sorted by owner then label.
	buf = appendPropMap(buf, a.vprops, func(id tgraph.VertexID) int64 { return int64(id) })
	buf = appendPropMap(buf, a.eprops, func(id tgraph.EdgeID) int64 { return int64(id) })
	buf = appendRunMap(buf, a.vruns, func(id tgraph.VertexID) int64 { return int64(id) })
	buf = appendRunMap(buf, a.eruns, func(id tgraph.EdgeID) int64 { return int64(id) })
	return buf, nil
}

func sortedKeys[K ~int64, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func appendSpan(buf []byte, s *openSpan) []byte {
	buf = binary.AppendUvarint(buf, uint64(s.start))
	if s.closed {
		buf = append(buf, 1)
		buf = binary.AppendUvarint(buf, uint64(s.end))
	} else {
		buf = append(buf, 0)
	}
	return buf
}

func appendPropMap[K ~int64](buf []byte, m map[K]map[string][]tgraph.PropEntry, idOf func(K) int64) []byte {
	ids := make([]K, 0, len(m))
	for id, p := range m {
		if len(p) > 0 {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		p := m[id]
		buf = binary.AppendVarint(buf, idOf(id))
		labels := make([]string, 0, len(p))
		for l := range p {
			labels = append(labels, l)
		}
		slices.Sort(labels)
		buf = binary.AppendUvarint(buf, uint64(len(labels)))
		for _, l := range labels {
			buf = binary.AppendUvarint(buf, uint64(len(l)))
			buf = append(buf, l...)
			entries := p[l]
			buf = binary.AppendUvarint(buf, uint64(len(entries)))
			for _, e := range entries {
				buf = binary.AppendUvarint(buf, uint64(e.Interval.Start))
				buf = binary.AppendUvarint(buf, uint64(e.Interval.End))
				buf = binary.AppendVarint(buf, e.Value)
			}
		}
	}
	return buf
}

func appendRunMap[K ~int64](buf []byte, m map[K]map[string]propRun, idOf func(K) int64) []byte {
	ids := make([]K, 0, len(m))
	for id, runs := range m {
		if len(runs) > 0 {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		runs := m[id]
		buf = binary.AppendVarint(buf, idOf(id))
		labels := make([]string, 0, len(runs))
		for l := range runs {
			labels = append(labels, l)
		}
		slices.Sort(labels)
		buf = binary.AppendUvarint(buf, uint64(len(labels)))
		for _, l := range labels {
			buf = binary.AppendUvarint(buf, uint64(len(l)))
			buf = append(buf, l...)
			run := runs[l]
			buf = binary.AppendUvarint(buf, uint64(run.start))
			buf = binary.AppendVarint(buf, run.value)
		}
	}
	return buf
}

// accDec is a bounds-checked varint reader.
type accDec struct {
	b   []byte
	off int
	err error
}

func (d *accDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: at byte %d: %s", ErrStateCorrupt, d.off, fmt.Sprintf(format, args...))
	}
}

func (d *accDec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("truncated uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *accDec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.off += n
	return v
}

func (d *accDec) time() ival.Time {
	v := d.uvarint()
	if d.err == nil && v > uint64(ival.Infinity) {
		d.fail("time-point %d out of range", v)
	}
	return ival.Time(v)
}

func (d *accDec) count() int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if rem := len(d.b) - d.off; v > uint64(rem)+1 {
		d.fail("count %d exceeds remaining %d bytes", v, rem)
		return 0
	}
	return int(v)
}

func (d *accDec) label() string {
	l := d.uvarint()
	if d.err != nil {
		return ""
	}
	if l > uint64(len(d.b)-d.off) {
		d.fail("label length %d exceeds input", l)
		return ""
	}
	s := string(d.b[d.off : d.off+int(l)])
	d.off += int(l)
	return s
}

func (d *accDec) span() *openSpan {
	s := &openSpan{start: d.time()}
	if d.err != nil {
		return s
	}
	if d.off >= len(d.b) {
		d.fail("truncated span")
		return s
	}
	switch d.b[d.off] {
	case 0:
		d.off++
	case 1:
		d.off++
		s.closed, s.end = true, d.time()
		if d.err == nil && s.end < s.start {
			d.fail("span closes at %d before it opens at %d", s.end, s.start)
		}
	default:
		d.fail("bad span flag %d", d.b[d.off])
	}
	return s
}

// UnmarshalAccumulator reconstructs an accumulator from MarshalBinary
// output. The result behaves identically to the original under both
// further Apply calls and Graph materialization.
func UnmarshalAccumulator(data []byte) (*Accumulator, error) {
	d := &accDec{b: data}
	if v := d.uvarint(); d.err == nil && v != accStateVersion {
		return nil, fmt.Errorf("%w: state version %d, want %d", ErrStateCorrupt, v, accStateVersion)
	}
	a := NewAccumulator()
	events := d.uvarint()
	a.now = d.time()
	if d.err == nil && events > uint64(1)<<62 {
		d.fail("event count %d out of range", events)
	}
	a.events = int(events)

	nv := d.count()
	for i := 0; i < nv && d.err == nil; i++ {
		id := tgraph.VertexID(d.varint())
		if _, dup := a.vspans[id]; dup {
			d.fail("duplicate vertex span %d", id)
			break
		}
		a.vspans[id] = d.span()
	}
	ne := d.count()
	for i := 0; i < ne && d.err == nil; i++ {
		id := tgraph.EdgeID(d.varint())
		if _, dup := a.espans[id]; dup {
			d.fail("duplicate edge span %d", id)
			break
		}
		s := d.span()
		s.ends = [2]tgraph.VertexID{tgraph.VertexID(d.varint()), tgraph.VertexID(d.varint())}
		a.espans[id] = s
		for _, v := range s.ends {
			if vs := a.vspans[v]; vs != nil && !s.closed {
				vs.open++
			}
		}
	}

	readProps(d, func(id int64, label string, entries []tgraph.PropEntry) {
		byLabel(a.vprops, tgraph.VertexID(id))[label] = entries
	})
	readProps(d, func(id int64, label string, entries []tgraph.PropEntry) {
		byLabel(a.eprops, tgraph.EdgeID(id))[label] = entries
	})
	readRuns(d, func(id int64, label string, run propRun) {
		byLabel(a.vruns, tgraph.VertexID(id))[label] = run
	})
	readRuns(d, func(id int64, label string, run propRun) {
		byLabel(a.eruns, tgraph.EdgeID(id))[label] = run
	})
	if d.err == nil && d.off != len(d.b) {
		d.fail("%d trailing bytes", len(d.b)-d.off)
	}
	if d.err != nil {
		return nil, d.err
	}
	return a, nil
}

func readProps(d *accDec, assign func(id int64, label string, entries []tgraph.PropEntry)) {
	n := d.count()
	for i := 0; i < n && d.err == nil; i++ {
		id := d.varint()
		nlabels := d.count()
		for j := 0; j < nlabels && d.err == nil; j++ {
			label := d.label()
			nentries := d.count()
			entries := make([]tgraph.PropEntry, 0, nentries)
			for k := 0; k < nentries && d.err == nil; k++ {
				start := d.time()
				end := d.time()
				val := d.varint()
				if d.err != nil {
					break
				}
				if end < start {
					d.fail("property entry [%d, %d) inverted", start, end)
					break
				}
				entries = append(entries, tgraph.PropEntry{Interval: ival.New(start, end), Value: val})
			}
			if d.err == nil {
				assign(id, label, entries)
			}
		}
	}
}

func readRuns(d *accDec, assign func(id int64, label string, run propRun)) {
	n := d.count()
	for i := 0; i < n && d.err == nil; i++ {
		id := d.varint()
		nlabels := d.count()
		for j := 0; j < nlabels && d.err == nil; j++ {
			label := d.label()
			start := d.time()
			val := d.varint()
			if d.err == nil {
				assign(id, label, propRun{start: start, value: val})
			}
		}
	}
}
