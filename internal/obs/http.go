package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// DebugServer is a running /debug endpoint. Close stops it.
type DebugServer struct {
	// Addr is the bound address (useful with ":0").
	Addr string
	srv  *http.Server
	ln   net.Listener
}

// DebugMux returns the debug surface as an embeddable mux: /metrics
// (Prometheus text exposition of the registry) and /debug/pprof/...
// (profiles, heap, goroutines). The serving layer mounts it next to its API;
// ServeDebug serves it standalone for the CLIs. Callers that mount it under
// a "/debug/" prefix route /metrics separately via MetricsHandler.
func DebugMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(reg))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeDebug exposes DebugMux over HTTP on addr. It returns once the
// listener is bound; the server runs until Close. Opt-in: nothing listens
// unless a CLI was started with -pprof.
func ServeDebug(addr string, reg *Registry) (*DebugServer, error) {
	mux := DebugMux(reg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listener: %w", err)
	}
	s := &DebugServer{
		Addr: ln.Addr().String(),
		srv:  &http.Server{Handler: mux},
		ln:   ln,
	}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return s, nil
}

// Close stops the server.
func (s *DebugServer) Close() error { return s.srv.Close() }
