package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"halfprice/internal/benchfmt"
	"halfprice/internal/experiments"
	"halfprice/internal/trace"
	"halfprice/internal/workloads"
)

// Submission defaults and caps.
const (
	defaultSubmitWidth = 4
	defaultSubmitInsts = 200_000
)

// SubmitRequest is the POST /v1/jobs body: a simulation described the
// way a user thinks about it — benchmark, machine width, scheme name —
// rather than a full uarch.Config. resolve turns it into the executable
// experiments.Request.
type SubmitRequest struct {
	// Bench names a calibrated trace profile (or, with Kernels, an
	// hpasm kernel). Required.
	Bench string `json:"bench"`
	// Width is the machine width: 4 (default) or 8.
	Width int `json:"width,omitempty"`
	// Scheme is the scheduler/register-file configuration; one of
	// benchfmt.Schemes(). Default "base".
	Scheme string `json:"scheme,omitempty"`
	// Insts is the instruction budget (default 200000, capped by the
	// server's MaxInsts).
	Insts uint64 `json:"insts,omitempty"`
	// Warmup discards statistics for the first N committed
	// instructions; must leave room under Insts.
	Warmup uint64 `json:"warmup,omitempty"`
	// Kernels selects the execution-driven assembly kernel named Bench
	// instead of its calibrated synthetic trace.
	Kernels bool `json:"kernels,omitempty"`
	// Priority is the admission class: interactive, batch (default) or
	// background.
	Priority string `json:"priority,omitempty"`
	// DeadlineSec is the job's whole-life budget in seconds, counted
	// from submission: queueing, dispatch and every retry all spend from
	// it, and a job that cannot finish inside it fails with a deadline
	// error. 0 means no deadline.
	DeadlineSec float64 `json:"deadline_sec,omitempty"`

	priority Priority
}

// resolve validates the spec against the server's limits and builds the
// executable request. It normalises defaults in place so the journaled
// spec reflects what actually ran.
func (sr *SubmitRequest) resolve(maxInsts uint64) (experiments.Request, error) {
	var req experiments.Request
	if strings.TrimSpace(sr.Bench) == "" {
		return req, fmt.Errorf("bench is required")
	}
	if sr.Width == 0 {
		sr.Width = defaultSubmitWidth
	}
	if sr.Scheme == "" {
		sr.Scheme = "base"
	}
	if sr.Insts == 0 {
		sr.Insts = defaultSubmitInsts
	}
	if sr.Insts > maxInsts {
		return req, fmt.Errorf("insts %d exceeds the server limit %d", sr.Insts, maxInsts)
	}
	if sr.Warmup >= sr.Insts {
		return req, fmt.Errorf("warmup %d leaves no instructions to measure under insts %d", sr.Warmup, sr.Insts)
	}
	if sr.DeadlineSec < 0 {
		return req, fmt.Errorf("deadline_sec must be non-negative, got %g", sr.DeadlineSec)
	}
	pri, err := ParsePriority(sr.Priority)
	if err != nil {
		return req, err
	}
	sr.priority = pri
	sr.Priority = pri.String()
	if sr.Kernels {
		if _, ok := workloads.Source(sr.Bench); !ok {
			return req, fmt.Errorf("unknown kernel %q", sr.Bench)
		}
	} else if _, ok := trace.ProfileByName(sr.Bench); !ok {
		return req, fmt.Errorf("unknown benchmark %q", sr.Bench)
	}
	cfg, err := benchfmt.SchemeConfig(sr.Width, sr.Scheme)
	if err != nil {
		return req, err
	}
	cfg.WarmupInsts = sr.Warmup
	return experiments.Request{
		Bench:      sr.Bench,
		Config:     cfg,
		Budget:     sr.Insts,
		UseKernels: sr.Kernels,
	}, nil
}

// Handler returns the service's HTTP API:
//
//	POST /v1/jobs              submit a job (201; 429 + Retry-After under overload)
//	GET  /v1/jobs              list the tenant's jobs (?state= filters)
//	GET  /v1/jobs/{id}         one job
//	GET  /v1/jobs/{id}/events  live NDJSON event stream until terminal
//	GET  /v1/jobs/{id}/result  the finished job's uarch.Stats JSON
//	POST /v1/jobs/{id}/cancel  cancel a queued job
//	GET  /v1/stats             queue/fleet/admission telemetry
//	GET  /healthz              liveness (unauthenticated)
//
// All /v1 endpoints require a tenant bearer token when tenants are
// configured; jobs are visible only to the tenant that submitted them.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("POST /v1/jobs", s.withTenant(s.handleSubmit))
	mux.HandleFunc("GET /v1/jobs", s.withTenant(s.handleList))
	mux.HandleFunc("GET /v1/jobs/{id}", s.withTenant(s.handleGet))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.withTenant(s.handleEvents))
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.withTenant(s.handleResult))
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.withTenant(s.handleCancel))
	mux.HandleFunc("GET /v1/stats", s.withTenant(s.handleStats))
	return mux
}

// withTenant authenticates the request and passes the resolved tenant
// name through.
func (s *Server) withTenant(h func(http.ResponseWriter, *http.Request, string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tenant := s.resolveTenant(r)
		if tenant == "" {
			w.Header().Set("WWW-Authenticate", `Bearer realm="hpserve"`)
			writeError(w, http.StatusUnauthorized, "missing or unknown tenant token")
			return
		}
		h(w, r, tenant)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// retryAfterSeconds renders a backoff estimate as an RFC 9110
// Retry-After value: whole seconds, rounded up and clamped to at least
// 1. Truncation would turn any sub-second estimate into "0" — which the
// RFC defines as "retry immediately", converting a brief overload into
// a thundering herd of instant retries.
func retryAfterSeconds(d time.Duration) string {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request, tenant string) {
	var spec SubmitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
		return
	}
	req, err := spec.resolve(s.opts.MaxInsts)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	j, err := s.Submit(tenant, spec, req)
	if err != nil {
		var adm *AdmissionError
		if errors.As(err, &adm) {
			w.Header().Set("Retry-After", retryAfterSeconds(adm.RetryAfter))
			writeJSON(w, http.StatusTooManyRequests, map[string]any{
				"error":           adm.Reason,
				"retry_after_sec": adm.RetryAfter.Seconds(),
			})
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.mu.Lock()
	v := j.viewLocked()
	s.mu.Unlock()
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	writeJSON(w, http.StatusCreated, v)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request, tenant string) {
	stateFilter := r.URL.Query().Get("state")
	s.mu.Lock()
	var jobs []*Job
	for _, j := range s.jobs {
		if j.Tenant == tenant && (stateFilter == "" || j.state == stateFilter) {
			jobs = append(jobs, j)
		}
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].Seq < jobs[b].Seq })
	views := []View{}
	for _, j := range jobs {
		views = append(views, j.viewLocked())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

// tenantJob looks a job up for tenant; another tenant's job is a 404,
// not a 403 — job IDs are not enumerable across tenants.
func (s *Server) tenantJob(tenant, id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil || j.Tenant != tenant {
		return nil
	}
	return j
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request, tenant string) {
	j := s.tenantJob(tenant, r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	s.mu.Lock()
	v := j.viewLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, v)
}

// handleEvents streams the job's events as NDJSON: the full history
// first, then live events until the job reaches a terminal state or
// the client disconnects. Every line is flushed immediately — this is
// the live progress feed.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request, tenant string) {
	j := s.tenantJob(tenant, r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	past, live, cancel := j.events.subscribe()
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	for _, e := range past {
		if enc.Encode(e) != nil {
			return
		}
	}
	flush()
	if live == nil {
		return
	}
	for {
		select {
		case e, ok := <-live:
			if !ok {
				return
			}
			if enc.Encode(e) != nil {
				return
			}
			flush()
		case <-r.Context().Done():
			return
		}
	}
}

// handleResult returns the finished job's raw uarch.Stats JSON — the
// same bytes json.Marshal produces everywhere else in the repo, so a
// client can compare results from different servers byte for byte.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request, tenant string) {
	j := s.tenantJob(tenant, r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	s.mu.Lock()
	state, errMsg, result := j.state, j.errMsg, j.result
	s.mu.Unlock()
	switch state {
	case StateDone:
		if result == nil {
			writeError(w, http.StatusInternalServerError, "result missing")
			return
		}
		writeJSON(w, http.StatusOK, result)
	case StateFailed:
		writeError(w, http.StatusConflict, "job failed: "+errMsg)
	default:
		writeError(w, http.StatusConflict, "job is "+state)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request, tenant string) {
	// Hold the job itself: once canceled, history eviction may drop it
	// from the server's map.
	j := s.tenantJob(tenant, r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	err := s.Cancel(tenant, j.ID)
	switch {
	case errors.Is(err, ErrNoJob):
		writeError(w, http.StatusNotFound, "no such job")
	case errors.Is(err, ErrNotCancelable):
		writeError(w, http.StatusConflict, "job is not queued")
	case err != nil:
		writeError(w, http.StatusInternalServerError, err.Error())
	default:
		s.mu.Lock()
		v := j.viewLocked()
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, v)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request, tenant string) {
	writeJSON(w, http.StatusOK, s.Stats())
}
