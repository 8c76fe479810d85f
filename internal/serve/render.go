package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"iter"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"graphite/internal/core"
	"graphite/internal/tgraph"
	"graphite/internal/warp"
)

// This file writes every body that carries a run result — a RunResult, or a
// JobView that may hold one — by appending it field by field, in the order
// and under the omissions of the structs' json tags, without reflection.
//
// The layout is flat: members are `"key": value`, separated by ", ", and the
// vertices list puts one vertex on a line. json.Indent(body, "", "  ") gives
// back, byte for byte, the two-space indented body a json.Encoder wrote here
// before, so `jq .` shows it the way it always looked; and the head still
// carries `"cached": true`, `"metrics": {` and `"seeded": true` as clients
// that match bytes there expect.
//
// A result's vertices array is rendered once, when its run finishes, into
// immutable chunks that every body carrying the result writes as they are.
// The body is streamed, never gathered whole; the first failed write ends it.

// Vertices is a result's "vertices" array as every body that carries the
// result writes it, cut after a vertex into chunks of about renderFlush
// bytes. The chunks are immutable: the cache, jobs and every response share
// them. The zero value, a run that kept no vertex, is rendered as null.
type Vertices struct{ chunks [][]byte }

// MarshalJSON returns a copy of the array, or null.
func (v Vertices) MarshalJSON() ([]byte, error) {
	if v.chunks == nil {
		return []byte("null"), nil
	}
	return bytes.Join(v.chunks, nil), nil
}

// UnmarshalJSON keeps a copy of the array, or null, a client read from a body.
func (v *Vertices) UnmarshalJSON(b []byte) error {
	v.chunks = [][]byte{bytes.Clone(b)}
	return nil
}

// Decode returns the vertices as a fresh slice, nil when the run kept none.
// A client's copy is one chunk and decodes in place.
func (v Vertices) Decode() (vs []VertexResult, err error) {
	b := v.chunks
	if len(b) != 1 {
		j, _ := v.MarshalJSON()
		b = [][]byte{j}
	}
	err = json.Unmarshal(b[0], &vs)
	return vs, err
}

const (
	renderFlush = 256 << 10 // a vertices chunk, one body write, is cut at the vertex that reaches this
	renderKeep  = 512 << 10 // a buffer one giant vertex grew past this is not pooled
)

// renderer is one body being written: the response, the bytes not yet
// written to it, and the first write error.
type renderer struct {
	w   io.Writer
	buf []byte
	err error
}

var renderers = sync.Pool{New: func() any {
	return &renderer{buf: make([]byte, 0, renderFlush+4<<10)}
}}

// writeRun writes a /v1/run result.
func writeRun(w http.ResponseWriter, code int, res *RunResult) {
	r := beginBody(w, code)
	r.runResult(res)
	r.end()
}

// writeJob writes a job: the 202 of an async run, a poll, a cancel.
func writeJob(w http.ResponseWriter, code int, jv *JobView) {
	r := beginBody(w, code)
	r.job(jv)
	r.end()
}

func beginBody(w http.ResponseWriter, code int) *renderer {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	r := renderers.Get().(*renderer)
	r.w = w
	return r
}

// end closes the body with the newline an Encoder ends a value with, writes
// what is pending and returns the renderer to the pool.
func (r *renderer) end() {
	r.buf = append(r.buf, '\n')
	r.flush()
	r.release()
}

func (r *renderer) release() {
	r.w, r.err, r.buf = nil, nil, r.buf[:0]
	if cap(r.buf) <= renderKeep {
		renderers.Put(r)
	}
}

func (r *renderer) flush() {
	if r.err == nil && len(r.buf) > 0 {
		_, r.err = r.w.Write(r.buf)
	}
	r.buf = r.buf[:0]
}

func (r *renderer) runResult(res *RunResult) {
	b := appendString(append(r.buf, `{"graph": `...), res.Graph)
	b = appendString(append(b, `, "algorithm": `...), res.Algorithm)
	b = appendString(append(b, `, "fingerprint": `...), res.Fingerprint)
	b = appendString(append(b, `, "window": `...), res.Window)
	if res.Span != "" {
		b = appendString(append(b, `, "span": `...), res.Span)
	}
	b = strconv.AppendBool(append(b, `, "cached": `...), res.Cached)
	if res.Epoch != 0 {
		b = strconv.AppendUint(append(b, `, "epoch": `...), res.Epoch, 10)
	}
	if res.Seeded {
		b = append(b, `, "seeded": true`...)
	}
	m := &res.Metrics
	b = strconv.AppendInt(append(b, `, "metrics": {"supersteps": `...), int64(m.Supersteps), 10)
	b = strconv.AppendInt(append(b, `, "compute_calls": `...), m.ComputeCalls, 10)
	b = strconv.AppendInt(append(b, `, "scatter_calls": `...), m.ScatterCalls, 10)
	b = strconv.AppendInt(append(b, `, "messages": `...), m.Messages, 10)
	b = strconv.AppendInt(append(b, `, "message_bytes": `...), m.MessageBytes, 10)
	b = strconv.AppendInt(append(b, `, "makespan_ns": `...), m.MakespanNS, 10)
	b = strconv.AppendInt(append(b, `, "warp_calls": `...), m.WarpCalls, 10)
	b = strconv.AppendInt(append(b, `, "warp_suppressed": `...), m.WarpSuppressed, 10)
	b = strconv.AppendInt(append(b, `, "active_intervals": `...), m.ActiveIntervals, 10)
	r.buf = append(b, `}, "vertices": `...)
	chunks := res.Vertices.chunks
	if chunks == nil {
		r.buf = append(r.buf, "null}"...)
		return
	}
	// The head goes out alone, then each chunk in one write, then the tail.
	r.flush()
	for _, c := range chunks {
		if r.err == nil {
			_, r.err = r.w.Write(c)
		}
	}
	r.buf = append(r.buf, '}')
}

// renderVertices renders a finished run's vertices, one on a line, into a
// pooled buffer cut after the vertex that brings it to renderFlush: a chunk
// is at most renderFlush plus one vertex, and is one allocation, its copy.
func renderVertices(vs iter.Seq2[*tgraph.Vertex, *core.PartitionedState]) Vertices {
	r := renderers.Get().(*renderer)
	var chunks [][]byte
	b, sep := r.buf, byte('[')
	for v, st := range vs {
		b = appendVertex(append(b, sep, '\n'), int64(v.ID), st.Parts())
		sep = ','
		if len(b) >= renderFlush {
			chunks = append(chunks, bytes.Clone(b))
			b = b[:0]
		}
	}
	if sep == ',' {
		chunks = append(chunks, bytes.Clone(append(b, '\n', ']')))
	}
	r.buf = b
	r.release()
	return Vertices{chunks}
}

// appendVertex appends one vertex as a body carries it. An interval is
// digits, '-', '[', ", ", '∞' and ')', which JSON carries as they are.
func appendVertex(b []byte, id int64, parts []warp.IntervalValue) []byte {
	b = strconv.AppendInt(append(b, `{"id": `...), id, 10)
	b = append(b, `, "parts": [`...)
	for i, p := range parts {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = p.Interval.Append(append(b, `{"interval": "`...))
		b = append(appendValue(append(b, `", "value": `...), p.Value, true), '}')
	}
	return append(b, "]}"...)
}

func (r *renderer) job(jv *JobView) {
	b := appendString(append(r.buf, `{"id": `...), jv.ID)
	b = appendString(append(b, `, "status": `...), jv.Status)
	b = appendString(append(b, `, "graph": `...), jv.Graph)
	b = appendString(append(b, `, "algorithm": `...), jv.Algorithm)
	b = appendString(append(b, `, "fingerprint": `...), jv.Fingerprint)
	if jv.Error != "" {
		b = appendString(append(b, `, "error": `...), jv.Error)
	}
	if jv.Result != nil {
		r.buf = append(b, `, "result": `...)
		r.runResult(jv.Result)
		b = r.buf
	}
	r.buf = append(b, '}')
}

// safeByte marks the ASCII bytes a JSON string carries as they are:
// encoding/json escapes the rest — quote, backslash, control bytes, and
// <, > and & so a body is safe to embed in HTML.
var safeByte = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString appends s quoted exactly as encoding/json quotes a string.
// Safe ASCII and valid multi-byte runes (such as the ∞ of every [t, ∞)
// interval) are copied in runs; an invalid UTF-8 byte becomes \ufffd, and
// U+2028 and U+2029 are escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if safeByte[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		rn, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case rn == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), "\\ufffd"...)
		case rn == '\u2028' || rn == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[rn&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
