package obs

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// scrape GETs one path of a debug server and returns the body of a 200.
func scrape(t *testing.T, s *DebugServer, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + s.Addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s status = %d, want 200", path, resp.StatusCode)
	}
	return string(body)
}

// TestServeDebug starts the debug endpoint on an ephemeral port and checks
// the registry shows up under /metrics and the pprof index answers.
func TestServeDebug(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(CMessages).Add(42)
	s, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatalf("ServeDebug: %v", err)
	}
	defer s.Close()
	sample := PromName(CMessages, "counter")
	if body := scrape(t, s, "/metrics"); !strings.Contains(body, "\n"+sample+" 42\n") {
		t.Errorf("/metrics lacks %q:\n%s", sample+" 42", body)
	}
	scrape(t, s, "/debug/pprof/")

	// A second endpoint in the same process serves its own registry, and the
	// first keeps serving its own: nothing about the exposition is global.
	reg2 := NewRegistry()
	reg2.Counter(CMessages).Add(7)
	s2, err := ServeDebug("127.0.0.1:0", reg2)
	if err != nil {
		t.Fatalf("second ServeDebug: %v", err)
	}
	defer s2.Close()
	if body := scrape(t, s2, "/metrics"); !strings.Contains(body, "\n"+sample+" 7\n") {
		t.Errorf("second /metrics lacks %q:\n%s", sample+" 7", body)
	}
	if body := scrape(t, s, "/metrics"); !strings.Contains(body, "\n"+sample+" 42\n") {
		t.Errorf("first /metrics stopped serving its own registry:\n%s", body)
	}
}
