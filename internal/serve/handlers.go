package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"time"

	"fastgr/internal/obs"
)

// registerHandlers mounts the job API beside the opsrv endpoints.
func (s *Server) registerHandlers(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/guides", s.handleGuides)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
}

// submitResponse is the 202 body of a successful submission.
type submitResponse struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// errorResponse is the JSON body of every non-2xx job-API response.
type errorResponse struct {
	Error string `json:"error"`
	// RetryAfterSec echoes the Retry-After header on 429s so JSON-only
	// clients need not parse headers.
	RetryAfterSec int `json:"retry_after_sec,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// handleSubmit is the admission path: validate, reserve a queue slot
// (never blocking), journal the submission, enqueue. Rejections are
// 429 with a Retry-After computed from observed service times; a
// draining server answers 503.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server is draining"})
		return
	}
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad job spec: " + err.Error()})
		return
	}
	up, err := spec.normalize()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	est := spec.estimateBytes(up)
	if est > s.cfg.MaxBytes {
		// No amount of waiting admits it: no Retry-After.
		writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{Error: fmt.Sprintf(
			"job needs an estimated %d bytes, over the queue budget of %d", est, s.cfg.MaxBytes)})
		return
	}
	if !s.q.admit(est) {
		s.obs.M().Counter(obs.MServeRejected).Add(1)
		retry := s.retryAfterSeconds()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeJSON(w, http.StatusTooManyRequests, errorResponse{
			Error:         "job queue is full",
			RetryAfterSec: retry,
		})
		return
	}
	job, err := s.store.Submit(spec, est)
	if err != nil {
		s.q.release(est)
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "journal: " + err.Error()})
		return
	}
	jj := job
	s.q.push(&jj)
	s.obs.M().Counter(obs.MServeAdmitted).Add(1)
	s.obs.M().Gauge(obs.MServeQueueDepth).Set(int64(s.q.depth()))
	writeJSON(w, http.StatusAccepted, submitResponse{ID: job.ID, State: job.State})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.store.List())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// handleGuides streams the guides artifact of a done job.
func (s *Server) handleGuides(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.store.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job"})
		return
	}
	if job.State != StateDone {
		writeJSON(w, http.StatusConflict, errorResponse{
			Error: fmt.Sprintf("job %s is %s, guides exist only for done jobs", id, job.State)})
		return
	}
	f, err := os.Open(s.store.GuidePath(id))
	if err != nil {
		// done is journaled only after the guides committed to disk, so
		// this is operator interference (artifact deleted), not a race.
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "guides artifact missing"})
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	http.ServeContent(w, r, id+".guides", fileModTime(f), f)
}

func fileModTime(f *os.File) time.Time {
	if st, err := f.Stat(); err == nil {
		return st.ModTime()
	}
	return time.Time{}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	prev, ok, err := s.store.RequestCancel(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job"})
		return
	}
	if err != nil {
		// The cancelled record never reached the ledger: a 202 would
		// promise a cancel a restart would not replay.
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "journal: " + err.Error()})
		return
	}
	if terminal(prev) {
		writeJSON(w, http.StatusConflict, errorResponse{
			Error: fmt.Sprintf("job %s already %s", id, prev)})
		return
	}
	if prev == StateQueued {
		// The cancel journaled the job's terminal state itself, so the
		// runner skips it and never counts it: this is its one count.
		s.obs.M().Counter(obs.MServeCancelled).Add(1)
	}
	if prev == StateRunning {
		s.mu.Lock()
		if rj := s.running[id]; rj != nil {
			rj.cancel()
		}
		s.mu.Unlock()
	}
	job, _ := s.store.Get(id)
	writeJSON(w, http.StatusAccepted, submitResponse{ID: id, State: job.State})
}
