package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"graphite/internal/algorithms"
)

var update = flag.Bool("update", false, "rewrite testdata/bodies from this tree")

// makespan is the one member of a run body that is a measurement, not a
// function of the request.
var makespan = regexp.MustCompile(`"makespan_ns": [0-9]+`)

// fetch sends one request to the server and returns the body with its
// makespan set to zero.
func fetch(t *testing.T, method, url string, body []byte, wantCode int) []byte {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != wantCode {
		t.Fatalf("%s %s: HTTP %d, %v: %.300s", method, url, resp.StatusCode, err, got)
	}
	return makespan.ReplaceAll(got, []byte(`"makespan_ns": 0`))
}

// TestRunBodyGolden pins the wire bytes of every catalog algorithm over
// transit, whole and windowed, to the bodies in testdata/bodies: a miss
// body, sync or as a job's result, equals its golden byte for byte, and a
// hit differs only in `"cached": true`. go test -run TestRunBodyGolden
// -update rewrites the goldens from this tree.
func TestRunBodyGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	for _, algo := range algorithms.Names() {
		for _, c := range []struct {
			name string
			win  *Window
		}{{"whole", nil}, {"window", &Window{Start: 2, End: 7}}} {
			path := filepath.Join("testdata", "bodies", algo+"-"+c.name+".json")
			req := RunRequest{Graph: "transit", Algorithm: algo, Window: c.win, Span: "0123456789abcdef",
				Params: map[string]int64{"source": 0, "target": 4}}
			post := func(async, noCache bool, code int) []byte {
				r := req
				r.Async, r.NoCache = async, noCache
				body, _ := json.Marshal(r)
				return fetch(t, http.MethodPost, ts.URL+"/v1/run", body, code)
			}
			// jobResult runs req as a job and returns its result as a body.
			jobResult := func(noCache bool) []byte {
				var jv JobView
				if err := json.Unmarshal(post(true, noCache, http.StatusAccepted), &jv); err != nil {
					t.Fatal(err)
				}
				for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
					body := fetch(t, http.MethodGet, ts.URL+"/v1/jobs/"+jv.ID, nil, http.StatusOK)
					if err := json.Unmarshal(body, &jv); err != nil {
						t.Fatal(err)
					}
					if terminal(jv.Status) || time.Now().After(deadline) {
						at := bytes.Index(body, []byte(`, "result": `))
						if jv.Status != JobDone || at < 0 || !bytes.HasSuffix(body, []byte("}\n")) {
							t.Fatalf("%s: job %s: %.300s", path, jv.Status, body)
						}
						return append(body[at+len(`, "result": `):len(body)-2], '\n')
					}
				}
			}
			job := jobResult(true)
			miss := post(false, false, http.StatusOK)
			hit := post(false, false, http.StatusOK)
			jobHit := jobResult(false)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, miss, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			wantHit := bytes.Replace(want, []byte(`"cached": false`), []byte(`"cached": true`), 1)
			for _, got := range []struct {
				what       string
				body, want []byte
			}{{"miss", miss, want}, {"job", job, want}, {"hit", hit, wantHit}, {"job hit", jobHit, wantHit}} {
				if !bytes.Equal(got.body, got.want) {
					t.Errorf("%s: the %s body differs from the golden\n got: %q\nwant: %q", path, got.what, got.body, got.want)
				}
			}
		}
	}
}
