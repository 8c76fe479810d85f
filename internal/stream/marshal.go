package stream

import (
	"encoding/binary"
	"errors"
	"slices"

	"graphite/internal/codec"
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

// readTime pops a time-point, which is at most Infinity.
func readTime(d *codec.Reader) ival.Time {
	return ival.Time(d.Max("time-point", uint64(ival.Infinity)))
}

// readSpan pops a span appendSpan wrote.
func readSpan(d *codec.Reader) *openSpan {
	s := &openSpan{start: readTime(d)}
	switch flag := d.Byte(); flag {
	case 0:
	case 1:
		s.closed, s.end = true, readTime(d)
		if s.end < s.start {
			d.Fail("span closes at %d before it opens at %d", s.end, s.start)
		}
	default:
		d.Fail("bad span flag %d", flag)
	}
	return s
}

// UnmarshalAccumulator reconstructs an accumulator from MarshalBinary
// output. The result behaves identically to the original under both
// further Apply calls and Graph materialization.
func UnmarshalAccumulator(data []byte) (*Accumulator, error) {
	d := codec.NewReader(data, ErrStateCorrupt)
	if v := d.Uvarint(); v != accStateVersion {
		d.Fail("state version %d, want %d", v, accStateVersion)
	}
	a := NewAccumulator()
	a.events = int(d.Max("event count", 1<<62))
	a.now = readTime(&d)
	for n := d.Count(1); n > 0 && d.Err == nil; n-- {
		id := tgraph.VertexID(d.Varint())
		if _, dup := a.vspans[id]; dup {
			d.Fail("duplicate vertex span %d", id)
		}
		a.vspans[id] = readSpan(&d)
	}
	for n := d.Count(1); n > 0 && d.Err == nil; n-- {
		id := tgraph.EdgeID(d.Varint())
		if _, dup := a.espans[id]; dup {
			d.Fail("duplicate edge span %d", id)
		}
		s := readSpan(&d)
		s.ends = [2]tgraph.VertexID{tgraph.VertexID(d.Varint()), tgraph.VertexID(d.Varint())}
		a.espans[id] = s
		for _, v := range s.ends {
			if vs := a.vspans[v]; vs != nil && !s.closed {
				vs.open++
			}
		}
	}

	readProps(&d, func(id int64, label string, entries []tgraph.PropEntry) {
		byLabel(a.vprops, tgraph.VertexID(id))[label] = entries
	})
	readProps(&d, func(id int64, label string, entries []tgraph.PropEntry) {
		byLabel(a.eprops, tgraph.EdgeID(id))[label] = entries
	})
	readRuns(&d, func(id int64, label string, run propRun) {
		byLabel(a.vruns, tgraph.VertexID(id))[label] = run
	})
	readRuns(&d, func(id int64, label string, run propRun) {
		byLabel(a.eruns, tgraph.EdgeID(id))[label] = run
	})
	if err := d.Done(); err != nil {
		return nil, err
	}
	return a, nil
}

// readProps and readRuns pop what appendPropMap and appendRunMap wrote; what
// they hand assign after a malformed field is never used.
func readProps(d *codec.Reader, assign func(id int64, label string, entries []tgraph.PropEntry)) {
	for n := d.Count(1); n > 0 && d.Err == nil; n-- {
		id := d.Varint()
		for nl := d.Count(1); nl > 0 && d.Err == nil; nl-- {
			label := string(d.Field("label"))
			ne := d.Count(1)
			entries := make([]tgraph.PropEntry, 0, ne)
			for ; ne > 0 && d.Err == nil; ne-- {
				start, end, val := readTime(d), readTime(d), d.Varint()
				if end < start {
					d.Fail("property entry [%d, %d) inverted", start, end)
				}
				entries = append(entries, tgraph.PropEntry{Interval: ival.New(start, end), Value: val})
			}
			assign(id, label, entries)
		}
	}
}

func readRuns(d *codec.Reader, assign func(id int64, label string, run propRun)) {
	for n := d.Count(1); n > 0 && d.Err == nil; n-- {
		id := d.Varint()
		for nl := d.Count(1); nl > 0 && d.Err == nil; nl-- {
			assign(id, string(d.Field("label")), propRun{start: readTime(d), value: d.Varint()})
		}
	}
}
