package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// JSONLTracer writes one JSON object per event, flat, with a leading
// "type" discriminator:
//
//	{"type":"superstep_end","superstep":3,"compute_ns":12345,...}
//
// Each event is one unbuffered Write of the line and its newline together,
// under a mutex (retry events arrive from worker goroutines). Over an
// O_APPEND file that makes the trace crash-safe: a process SIGKILLed between
// events never leaves a torn line, and a respawned incarnation appending to
// the same file yields one parseable trace covering every incarnation.
type JSONLTracer struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewJSONLTracer wraps w. If w is also an io.Closer, Close closes it.
func NewJSONLTracer(w io.Writer) *JSONLTracer { return &JSONLTracer{w: w} }

// CreateJSONLTrace creates (truncating) a trace file at path.
func CreateJSONLTrace(path string) (*JSONLTracer, error) {
	return openJSONLTrace(path, os.O_TRUNC)
}

// AppendJSONLTrace opens (creating if needed) path for append, so a
// respawned process extends the trace the one it replaces left behind.
func AppendJSONLTrace(path string) (*JSONLTracer, error) {
	return openJSONLTrace(path, os.O_APPEND)
}

func openJSONLTrace(path string, mode int) (*JSONLTracer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|mode, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: open trace: %w", err)
	}
	return NewJSONLTracer(f), nil
}

// Emit implements Tracer: one write call per event.
func (t *JSONLTracer) Emit(e Event) {
	line, err := MarshalEvent(e)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if err == nil {
		_, err = t.w.Write(append(line, '\n'))
	}
	t.err = err
}

// Close closes the underlying writer when it is a Closer; it returns the
// first error seen on the stream.
func (t *JSONLTracer) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.w.(io.Closer); ok {
		if err := c.Close(); err != nil && t.err == nil {
			t.err = err
		}
	}
	return t.err
}

// MarshalEvent renders one event as its flat JSONL line (no trailing
// newline): the event's own fields with "type" spliced in front.
func MarshalEvent(e Event) ([]byte, error) {
	body, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("obs: marshal %s event: %w", e.Kind(), err)
	}
	head := fmt.Appendf(nil, `{"type":%q`, e.Kind())
	if len(body) <= 2 { // "{}" — event with no fields
		return append(head, '}'), nil
	}
	head = append(head, ',')
	return append(head, body[1:]...), nil
}
