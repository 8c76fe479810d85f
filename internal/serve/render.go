package serve

import (
	"io"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
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
// The body is streamed, never held whole: it is appended to one pooled
// buffer that is written to the response each time it holds renderFlush
// bytes at a vertex boundary. The first failed write ends the render.

const (
	renderFlush = 16 << 10 // write the buffer out once it holds this much, between vertices
	renderKeep  = 64 << 10 // a buffer one giant vertex grew past this is not pooled
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
	r.w, r.err = nil, nil
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
	b = append(b, `}, "vertices": `...)
	if res.Vertices == nil {
		r.buf = append(b, "null}"...)
		return
	}
	b = append(b, '[')
	for i := range res.Vertices {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendVertex(append(b, '\n'), &res.Vertices[i])
		if len(b) >= renderFlush {
			r.buf = b
			if r.flush(); r.err != nil {
				return
			}
			b = r.buf
		}
	}
	if len(res.Vertices) > 0 {
		b = append(b, '\n')
	}
	r.buf = append(b, "]}"...)
}

func appendVertex(b []byte, v *VertexResult) []byte {
	b = strconv.AppendInt(append(b, `{"id": `...), v.ID, 10)
	if len(v.Parts) > 0 {
		b = append(b, `, "parts": [`...)
		for i := range v.Parts {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = appendString(append(b, `{"interval": `...), v.Parts[i].Interval)
			b = appendString(append(b, `, "value": `...), v.Parts[i].Value)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}')
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
