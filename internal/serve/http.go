package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"graphite/internal/engine"
	"graphite/internal/obs"
)

// Handler returns the server's HTTP API:
//
//	GET    /healthz        liveness: 200 while the process serves at all
//	GET    /readyz         readiness: 503 while draining
//	GET    /v1/graphs      the loaded graphs
//	POST   /v1/run         run an algorithm (sync, or async with a job id)
//	GET    /v1/jobs        list async jobs
//	GET    /v1/jobs/{id}   poll an async job
//	DELETE /v1/jobs/{id}   cancel an async job
//	GET    /metrics        Prometheus text exposition of the server registry
//	/debug/pprof/...       the obs profiling surface
//
// Every API endpoint is instrumented with a request counter, an error
// counter and a latency histogram under "serve.http.<name>.*"; /metrics
// itself is left uninstrumented so scrapes do not pollute the series they
// collect.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.instrument("readyz", s.handleReadyz))
	mux.HandleFunc("GET /v1/graphs", s.instrument("graphs", s.handleGraphs))
	mux.HandleFunc("POST /v1/graphs/{id}/events", s.instrument("events", s.handleEvents))
	mux.HandleFunc("POST /v1/run", s.instrument("run", s.handleRun))
	mux.HandleFunc("GET /v1/jobs", s.instrument("jobs", s.handleJobs))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("job_get", s.handleJobGet))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrument("job_cancel", s.handleJobCancel))
	mux.Handle("GET /metrics", obs.MetricsHandler(s.reg))
	mux.Handle("/debug/", obs.DebugMux(s.reg))
	return mux
}

// statusWriter captures the response code for the error counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the per-endpoint counters and latency
// histogram.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	reqs := s.reg.Counter("serve.http." + name + ".requests")
	errs := s.reg.Counter("serve.http." + name + ".errors")
	lat := s.reg.Histogram("serve.http." + name + ".latency_ns")
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqs.Inc()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		if sw.code >= 400 {
			errs.Inc()
		}
		lat.Observe(time.Since(start))
	}
}

// writeJSON writes a small body — health, readiness, graphs, events, the job
// list, errors — as two-space indented JSON and a newline. The bodies that
// carry a run result are streamed by writeRun and writeJob (render.go).
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// statusFor maps the service's typed errors onto HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrUnknownGraph), errors.Is(err, ErrUnknownJob):
		return http.StatusNotFound
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrBusy):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, engine.ErrCanceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

func writeError(w http.ResponseWriter, err error) {
	code := statusFor(err)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, map[string]any{"error": err.Error(), "status": code})
}

func msToDuration(ms int64) time.Duration { return time.Duration(ms) * time.Millisecond }

// handleHealthz is pure liveness: as long as the process can answer, it is
// alive — even mid-drain, so orchestrators don't kill a server that is
// finishing in-flight work. Readiness (take traffic or not) is /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"graphs": len(s.names),
	})
}

// handleReadyz is readiness: 503 once draining (stop routing new work
// here).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining", "reason": "server draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}

func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	infos := make([]GraphInfo, 0, len(s.names))
	for _, name := range s.names {
		if lg := s.liveGraphs[name]; lg != nil {
			ep := lg.Acquire()
			g := ep.Graph()
			info := GraphInfo{
				Name:     name,
				Vertices: g.NumVertices(),
				Edges:    g.NumEdges(),
				Horizon:  int64(g.Horizon()),
				Live:     true,
				Epoch:    ep.ID(),
				Events:   ep.Events(),
			}
			if g.NumVertices() > 0 {
				info.Lifespan = windowLabel(g.Lifespan())
			}
			ep.Release()
			infos = append(infos, info)
			continue
		}
		g := s.graphs[name]
		infos = append(infos, GraphInfo{
			Name:     name,
			Vertices: g.NumVertices(),
			Edges:    g.NumEdges(),
			Lifespan: windowLabel(g.Lifespan()),
			Horizon:  int64(g.Horizon()),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"graphs": infos})
}

// handleEvents is the mutation endpoint: one atomic, durably logged batch of
// stream events per call, publishing one new epoch.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	var req EventsRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, fmt.Errorf("%w: %v", ErrBadRequest, err))
		return
	}
	res, err := s.ApplyEvents(r.PathValue("id"), req.Events)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, fmt.Errorf("%w: %v", ErrBadRequest, err))
		return
	}
	if req.Async {
		jv, err := s.Submit(&req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJob(w, http.StatusAccepted, &jv)
		return
	}
	timeout := s.cfg.RequestTimeout
	if req.TimeoutMS > 0 {
		timeout = msToDuration(req.TimeoutMS)
	}
	// The run context joins the client connection (a disconnect cancels the
	// run) with the request deadline; the executor additionally aborts it if
	// the server closes.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	res, err := s.Execute(ctx, &req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeRun(w, http.StatusOK, res)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.Jobs()})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	jv, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJob(w, http.StatusOK, &jv)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	jv, err := s.CancelJob(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJob(w, http.StatusOK, &jv)
}
