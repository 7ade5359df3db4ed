package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"dvbp/internal/metrics"
	"dvbp/internal/vector"
)

// Server is the HTTP front end over a Store. It is an http.Handler; the
// caller owns the listener and its lifecycle (cmd/dvbpserver wires signals,
// timeouts, and exit codes around it).
type Server struct {
	store *Store
	reg   *metrics.Registry
	mux   *http.ServeMux

	draining atomic.Bool

	requests *metrics.Counter
	errors   *metrics.Counter
	latency  *metrics.Histogram
}

// New builds a Server over an opened (hence recovered) store.
func New(store *Store, reg *metrics.Registry) *Server {
	s := &Server{
		store:    store,
		reg:      reg,
		mux:      http.NewServeMux(),
		requests: reg.Counter("dvbp_server_requests_total", "HTTP requests handled"),
		errors:   reg.Counter("dvbp_server_errors_total", "HTTP requests answered with a 4xx/5xx status"),
		latency: reg.Histogram("dvbp_server_request_seconds", "HTTP request latency",
			0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/tenants", s.handleCreateTenant)
	s.mux.HandleFunc("GET /v1/tenants", s.handleListTenants)
	s.mux.HandleFunc("GET /v1/tenants/{name}", s.handleTenantStatus)
	s.mux.HandleFunc("DELETE /v1/tenants/{name}", s.handleDeleteTenant)
	s.mux.HandleFunc("POST /v1/tenants/{name}/place", s.handlePlace)
	s.mux.HandleFunc("POST /v1/tenants/{name}/advance", s.handleAdvance)
	s.mux.HandleFunc("GET /v1/tenants/{name}/placements", s.handlePlacements)
	return s
}

// ServeHTTP implements http.Handler with request accounting around the mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.requests.Inc()
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	s.mux.ServeHTTP(sw, r)
	if sw.status >= 400 {
		s.errors.Inc()
	}
	s.latency.Observe(time.Since(start).Seconds())
}

// Drain flips the server into shutdown mode: /readyz turns 503 and every
// mutating endpoint refuses new work, while requests already queued keep
// draining. Call before Store.Close.
func (s *Server) Drain() { s.draining.Store(true) }

// statusWriter records the status code for the accounting wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// errorBody is the structured error every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, aerr *apiError) {
	if aerr.Status == http.StatusTooManyRequests || aerr.Status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, aerr.Status, errorBody{Error: aerr.Msg, Code: aerr.Code})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Liveness only: the process is up and serving, even while draining.
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeErr(w, errDraining)
		return
	}
	// The store recovered before New was reachable, so reaching this
	// handler at all means every manifest tenant is live again — but a
	// tenant riding out a sick disk in read-only degraded mode makes the
	// server not-ready for writes, and orchestrators should know.
	if degraded := s.store.Degraded(); len(degraded) > 0 {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "degraded", "tenants": len(s.store.List()), "degraded": degraded,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "tenants": len(s.store.List())})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, snap)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprint(w, snap.Prometheus())
}

func (s *Server) handleCreateTenant(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeErr(w, errDraining)
		return
	}
	var cfg TenantConfig
	if aerr := decodeBody(r, &cfg); aerr != nil {
		writeErr(w, aerr)
		return
	}
	t, aerr := s.store.Create(cfg)
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	writeJSON(w, http.StatusCreated, t.Config())
}

func (s *Server) handleListTenants(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"tenants": s.store.List()})
}

func (s *Server) handleDeleteTenant(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeErr(w, errDraining)
		return
	}
	if aerr := s.store.Delete(r.PathValue("name")); aerr != nil {
		writeErr(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}

// placeBody is the place request: departure may be given absolutely or as a
// duration from arrival; a missing arrival means "now" (the tenant's
// watermark).
type placeBody struct {
	Arrival   *float64  `json:"arrival"`
	Departure *float64  `json:"departure"`
	Duration  *float64  `json:"duration"`
	Size      []float64 `json:"size"`
}

func (s *Server) handlePlace(w http.ResponseWriter, r *http.Request) {
	var body placeBody
	if aerr := decodeBody(r, &body); aerr != nil {
		writeErr(w, aerr)
		return
	}
	req := &request{kind: reqPlace, size: vector.Vector(body.Size)}
	if body.Arrival != nil {
		req.arrival = *body.Arrival
		req.arrivalSet = true
	}
	switch {
	case body.Departure != nil && body.Duration != nil:
		writeErr(w, errf(http.StatusBadRequest, "bad_request", "give departure or duration, not both"))
		return
	case body.Departure != nil:
		req.departure = *body.Departure
	case body.Duration != nil:
		// Resolved against the tenant's watermark by the worker, which is
		// the only goroutine that knows the effective arrival time.
		req.duration = *body.Duration
		req.durationSet = true
	default:
		writeErr(w, errf(http.StatusBadRequest, "bad_request", "departure or duration required"))
		return
	}
	resp, aerr := s.dispatch(r, req)
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, resp.place)
}

type advanceBody struct {
	To float64 `json:"to"`
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	var body advanceBody
	if aerr := decodeBody(r, &body); aerr != nil {
		writeErr(w, aerr)
		return
	}
	resp, aerr := s.dispatch(r, &request{kind: reqAdvance, to: body.To})
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, resp.advance)
}

func (s *Server) handleTenantStatus(w http.ResponseWriter, r *http.Request) {
	resp, aerr := s.dispatchRead(r, &request{kind: reqStats})
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, resp.stats)
}

func (s *Server) handlePlacements(w http.ResponseWriter, r *http.Request) {
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeErr(w, errf(http.StatusBadRequest, "bad_request", "from must be a non-negative integer"))
			return
		}
		from = n
	}
	resp, aerr := s.dispatchRead(r, &request{kind: reqPlacements, from: from})
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, resp.placements)
}

// dispatch enqueues a mutating request on the named tenant and waits for the
// group-committed response. Draining refuses up front; the bounded queue and
// request deadline bound everything else.
func (s *Server) dispatch(r *http.Request, req *request) (response, *apiError) {
	if s.draining.Load() {
		return response{}, errDraining
	}
	return s.dispatchRead(r, req)
}

// dispatchRead enqueues a request without the draining gate: reads stay
// available while queued work drains.
func (s *Server) dispatchRead(r *http.Request, req *request) (response, *apiError) {
	t, aerr := s.store.Get(r.PathValue("name"))
	if aerr != nil {
		return response{}, aerr
	}
	req.reply = make(chan response, 1)
	if aerr := t.enqueue(req); aerr != nil {
		return response{}, aerr
	}
	resp := <-req.reply
	if resp.err != nil {
		return response{}, resp.err
	}
	return resp, nil
}

// decodeBody parses a JSON request body strictly: one JSON value, with
// nothing but white space after it, and unknown fields rejected so typos
// fail loudly instead of silently defaulting.
func decodeBody(r *http.Request, v any) *apiError {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return errf(http.StatusBadRequest, "bad_json", "decoding request body: %v", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return errf(http.StatusBadRequest, "bad_json", "decoding request body: data after the JSON value")
	}
	return nil
}
