package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// respBody is a response value whose rendering is n entries long, with
// content that exercises escaping and nesting.
func respBody(n int) map[string]any {
	rows := make([]map[string]any, n)
	for i := range rows {
		rows[i] = map[string]any{"vertex": i, "note": fmt.Sprintf("<%d & \"q\">", i), "parts": []int{i, i + 1}}
	}
	return map[string]any{"cached": false, "metrics": map[string]any{"rows": n}, "result": rows}
}

// wantJSON is what writeJSON has always sent: two-space indented JSON and a
// newline. Clients match on these bytes.
func wantJSON(t testing.TB, v any) string {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b) + "\n"
}

// TestWriteJSONIsByteIdentical sends large, small and empty bodies through
// writeJSON and requires each to be exactly the indented rendering.
func TestWriteJSONIsByteIdentical(t *testing.T) {
	for _, n := range []int{2000, 1, 0, 300} {
		v := respBody(n)
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusAccepted, v)
		if rec.Code != http.StatusAccepted || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("n=%d: status %d, content type %q", n, rec.Code, rec.Header().Get("Content-Type"))
		}
		if got, want := rec.Body.String(), wantJSON(t, v); got != want {
			t.Fatalf("n=%d: response differs from MarshalIndent + newline (%d vs %d bytes)", n, len(got), len(want))
		}
	}
}

// TestWriteJSONConcurrentWriters has many goroutines write responses of
// their own sizes at once; `make race` runs it under the detector. No
// response may carry another's bytes.
func TestWriteJSONConcurrentWriters(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				v := respBody((w*37 + i*11) % 200)
				rec := httptest.NewRecorder()
				writeJSON(rec, http.StatusOK, v)
				if rec.Body.String() != wantJSON(t, v) {
					t.Errorf("writer %d response %d differs from MarshalIndent + newline", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestResponseAfterFailedWrite: a response written after one whose client
// went away is whole — the renderer that met the dead client goes back to the
// pool with nothing of that body left in it.
func TestResponseAfterFailedWrite(t *testing.T) {
	for i := 0; i < 4; i++ {
		writeJSON(&failingResponse{ResponseWriter: httptest.NewRecorder()}, http.StatusOK, respBody(3))
		v := respBody(5)
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, v)
		if rec.Body.String() != wantJSON(t, v) {
			t.Fatalf("round %d: the response after a failed write is %q", i, rec.Body.String())
		}
		writeRun(&failingResponse{ResponseWriter: httptest.NewRecorder()}, http.StatusOK, syntheticResult(t, 2000+i))
		checkRun(t, fmt.Sprintf("round %d: the result after a failed write", i), syntheticResult(t, i))
	}
}
