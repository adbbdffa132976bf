// Package serve turns the simulator into a long-running service: an
// HTTP/JSON API (stdlib net/http only) that executes canonical job specs
// (internal/spec) as managed jobs behind a bounded queue and a worker
// pool, with a content-addressed result cache, singleflight deduplication
// of identical in-flight requests, per-job cancellation, graceful drain,
// and a Prometheus-format metrics surface.
//
// The caching contract: the simulator is byte-deterministic in the
// normalized spec (the repository's -jobs determinism tests pin this),
// so the spec's sha256 content address fully identifies a result. A
// cache hit therefore returns bytes identical to a fresh computation —
// pinned by this package's tests and by the ci.sh end-to-end smoke.
//
// API:
//
//	POST   /v1/jobs             submit a spec; 202 queued, 200 cache/dedup
//	                            hit, 400 bad spec, 429 queue full, 503 draining
//	POST   /v1/traces           chunked trace upload (text or binary
//	                            ingest format): streamed to the trace blob
//	                            store with bounded request memory, hash
//	                            computed while streaming; 200 {hash,...},
//	                            400 malformed trace
//	GET    /v1/jobs/{id}        job status + progress
//	GET    /v1/jobs/{id}/result rendered result (text; ?format=json for
//	                            structured; ?wait=1 blocks until terminal)
//	GET    /v1/results/{hash}   content-addressed result read: serves the
//	                            bytes for a spec hash from the hot LRU or
//	                            the disk store, 404 when absent — the
//	                            endpoint cluster peers read through
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /healthz             liveness + queue/worker occupancy
//	GET    /metrics             Prometheus text exposition
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/metrics"
	"repro/internal/serve/store"
	"repro/internal/spec"
)

// Config tunes a Server. Zero values select the documented defaults.
type Config struct {
	// Workers is the job worker-pool width (default 2). Each worker runs
	// one job at a time; exp-kind jobs additionally fan their grid across
	// ExpJobs goroutines.
	Workers int
	// QueueDepth bounds the pending-job backlog (default 16). A full
	// queue rejects submissions with 429 — backpressure, not buffering.
	QueueDepth int
	// CacheEntries bounds the content-addressed result cache (default
	// 64 entries; results are rendered tables, a few KB each).
	CacheEntries int
	// Store, when non-nil, is the disk spill tier behind the in-memory
	// LRU: every completed result is persisted there, LRU misses read
	// through it, and it survives restarts. The determinism contract
	// (spec hash addresses exact bytes) is what makes a disk hit
	// indistinguishable from a fresh computation.
	Store *store.Store
	// Traces, when non-nil, enables trace-kind jobs: POST /v1/traces
	// streams uploads into it, and trace-kind submissions resolve their
	// content hash against it. nil rejects both (the default for a
	// stateless server — trace jobs need durable input bytes).
	Traces *store.Blobs
	// ExpJobs is the per-experiment grid pool width handed to
	// internal/exp (0 = GOMAXPROCS). Output is byte-identical for every
	// value, so this is pure execution policy.
	ExpJobs int
	// Parallel > 1 runs every simulation the server executes on that
	// many event lanes with lane-confined phases in parallel (see
	// spec.ParallelHooks; 0/1 = single queue). Like ExpJobs, output —
	// and therefore the content-addressed cache — is byte-identical for
	// every value.
	Parallel int
	// JobTimeout, when non-zero, bounds each job's wall-clock run time;
	// an expired job is reported as canceled.
	JobTimeout time.Duration
	// Runner, when non-nil, replaces the built-in spec runner. It must
	// honor the determinism contract (identical bytes for identical
	// normalized specs) — the cache, the disk store and the cluster
	// layer all assume it. Test seam and extension point.
	Runner func(ctx context.Context, sp spec.Spec, progress func(done, total int), coll *metrics.Collector) (*Result, error)
	// SideDir, when non-empty, receives per-job side files: the
	// canonical spec (<id>.spec.txt), a JSONL event trace for sim jobs
	// (<id>.trace.jsonl), and the final status (<id>.status.json).
	SideDir string
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// maxJobHistory bounds the jobs map: beyond it, the oldest *terminal*
// jobs are forgotten (404 afterwards). Cached results survive in the
// result cache independently of job records.
const maxJobHistory = 1024

// NewServer builds a Server and starts its worker pool. The caller owns
// the HTTP listener; Server implements http.Handler. Stop with Drain
// (graceful) or Close (cancel everything).
func NewServer(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 64
	}
	s := newServerCore(cfg)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// ServeHTTP dispatches to the API mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.count("http.requests")
	s.mux.ServeHTTP(w, r)
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("POST /v1/traces", s.handleTraceUpload)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/results/{hash}", s.handleResultByHash)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// handleSubmit accepts a spec, resolves it against the cache and the
// in-flight set, and otherwise enqueues a new job.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var raw spec.Spec
	if err := dec.Decode(&raw); err != nil {
		http.Error(w, "bad spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	n, err := raw.Normalized()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	hash, err := n.Hash()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	// First pass: hot LRU hit or in-flight dedup, under the lock. A hot
	// miss is counted exactly once, here — the disk probe and enqueue
	// below don't re-count.
	if st, code, ok := s.resolveSubmit(n, hash, true); ok {
		writeJSON(w, code, st)
		return
	}

	// Disk read-through, outside the lock (file I/O must not block
	// submissions). A valid entry becomes a synthetic done job and is
	// promoted into the LRU; a corrupt entry was already evicted by the
	// store and falls through to a fresh computation.
	if s.cfg.Store != nil {
		if text, js, err := s.cfg.Store.Get(hash); err == nil {
			s.count("store.hits")
			s.mu.Lock()
			res, ok := s.cache.get(hash) // lost a race with a concurrent insert?
			if !ok {
				res = &Result{Text: text, JSON: js}
				if ev := s.cache.put(hash, res); ev > 0 {
					s.evictionsLocked(ev)
				}
			}
			st := s.cachedJobLocked(n, hash, res)
			s.mu.Unlock()
			writeJSON(w, http.StatusOK, st)
			return
		}
	}

	// Second pass: re-check under the lock (another request may have
	// resolved the hash while we touched the disk), then enqueue.
	if st, code, ok := s.resolveSubmit(n, hash, false); ok {
		writeJSON(w, code, st)
		return
	}

	// A trace job that reaches execution needs its input bytes; with no
	// cached result to serve, an unknown trace hash can only fail later,
	// so reject it now with a pointer at the upload endpoint.
	if n.Kind == spec.KindTrace {
		if s.cfg.Traces == nil {
			http.Error(w, "trace jobs not enabled (server has no trace store)", http.StatusBadRequest)
			return
		}
		if !s.cfg.Traces.Has(n.Trace) {
			http.Error(w, fmt.Sprintf("unknown trace %s: upload it via POST /v1/traces first", n.Trace),
				http.StatusBadRequest)
			return
		}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		http.Error(w, "server is draining", http.StatusServiceUnavailable)
		return
	}
	j := s.newJobLocked(n, hash)
	select {
	case s.queue <- j:
		s.inflight[hash] = j
		st := j.statusLocked()
		s.mu.Unlock()
		s.count("jobs.submitted")
		s.writeSpecSideFile(j)
		writeJSON(w, http.StatusAccepted, st)
	default:
		delete(s.jobs, j.ID)
		s.mu.Unlock()
		s.count("queue.rejects")
		http.Error(w, fmt.Sprintf("queue full (%d pending)", cap(s.queue)), http.StatusTooManyRequests)
	}
}

// resolveSubmit serves a submission from the hot cache or the in-flight
// set. countMiss makes the first pass charge the hot-tier miss counter.
func (s *Server) resolveSubmit(n spec.Spec, hash string, countMiss bool) (JobStatus, int, bool) {
	s.mu.Lock()
	if res, ok := s.cache.get(hash); ok {
		st := s.cachedJobLocked(n, hash, res)
		s.mu.Unlock()
		s.count("cache.hits")
		return st, http.StatusOK, true
	}
	if ex, ok := s.inflight[hash]; ok {
		st := ex.statusLocked()
		st.Deduped = true
		s.mu.Unlock()
		if countMiss {
			s.count("cache.misses")
		}
		s.count("jobs.deduped")
		return st, http.StatusOK, true
	}
	s.mu.Unlock()
	if countMiss {
		s.count("cache.misses")
	}
	return JobStatus{}, 0, false
}

// cachedJobLocked registers a synthetic already-done job serving res.
// Caller holds mu.
func (s *Server) cachedJobLocked(n spec.Spec, hash string, res *Result) JobStatus {
	j := s.newJobLocked(n, hash)
	j.State, j.Cached, j.res = JobDone, true, res
	j.Done, j.Total = 1, 1
	j.finished = j.submitted
	close(j.done)
	return j.statusLocked()
}

func (s *Server) lookup(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		http.Error(w, "unknown job", http.StatusNotFound)
		return
	}
	s.mu.Lock()
	st := j.statusLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handleResult serves a finished job's body. ?wait=1 blocks until the
// job reaches a terminal state (bounded by the request's own context),
// which lets a client submitted before a drain retrieve its result
// through the drain window without polling races.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		http.Error(w, "unknown job", http.StatusNotFound)
		return
	}
	if r.URL.Query().Get("wait") != "" {
		select {
		case <-j.done:
		case <-r.Context().Done():
			http.Error(w, "wait aborted", http.StatusRequestTimeout)
			return
		}
	}
	s.mu.Lock()
	state, res, errStr, st := j.State, j.res, j.Err, j.statusLocked()
	s.mu.Unlock()
	switch state {
	case JobQueued, JobRunning:
		writeJSON(w, http.StatusAccepted, st)
	case JobCanceled:
		http.Error(w, "job canceled: "+errStr, http.StatusGone)
	case JobFailed:
		http.Error(w, "job failed: "+errStr, http.StatusInternalServerError)
	case JobDone:
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(res.JSON)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write(res.Text)
	}
}

// LookupResult fetches the result bytes for a spec hash from the hot
// LRU or, failing that, the disk store (promoting a disk hit into the
// LRU). It is the local read path behind /v1/results/{hash} and the
// hook cluster routers use for peer read-through.
func (s *Server) LookupResult(hash string) (*Result, bool) {
	s.mu.Lock()
	res, ok := s.cache.get(hash)
	s.mu.Unlock()
	if ok {
		return res, true
	}
	if s.cfg.Store == nil {
		return nil, false
	}
	text, js, err := s.cfg.Store.Get(hash)
	if err != nil {
		return nil, false
	}
	s.count("store.hits")
	res = &Result{Text: text, JSON: js}
	s.mu.Lock()
	if hot, ok := s.cache.get(hash); ok {
		res = hot // a concurrent insert won; serve the canonical copy
	} else if ev := s.cache.put(hash, res); ev > 0 {
		s.evictionsLocked(ev)
	}
	s.mu.Unlock()
	return res, true
}

// AdmitResult inserts a result fetched from elsewhere (a cluster peer)
// into the hot LRU and the disk store. The determinism contract makes
// this safe: the hash fully addresses the bytes, so an admitted result
// is identical to what a local computation would have produced.
func (s *Server) AdmitResult(hash string, res *Result) {
	s.mu.Lock()
	if _, ok := s.cache.get(hash); !ok {
		if ev := s.cache.put(hash, res); ev > 0 {
			s.evictionsLocked(ev)
		}
	}
	s.mu.Unlock()
	s.count("results.admitted")
	if s.cfg.Store != nil {
		if err := s.cfg.Store.Put(hash, res.Text, res.JSON); err != nil {
			s.logf("dlserve: store admit %s: %v", hash[:12], err)
		}
	}
}

// handleResultByHash serves a result by its content address. Unlike the
// job endpoints this is location-independent: any node holding the bytes
// (hot or spilled) can answer, which is what makes cluster peer
// read-through possible.
func (s *Server) handleResultByHash(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	res, ok := s.LookupResult(hash)
	if !ok {
		s.count("results.misses")
		http.Error(w, "no result for hash", http.StatusNotFound)
		return
	}
	s.count("results.hits")
	w.Header().Set("X-DL-Spec-Hash", hash)
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(res.JSON)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write(res.Text)
}

// handleCancel cancels a job: queued jobs terminate immediately, running
// jobs get their context canceled (exp grids abort between simulations;
// a single simulation runs to completion — the engine is not
// interruptible mid-kernel).
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		http.Error(w, "unknown job", http.StatusNotFound)
		return
	}
	canceledNow := false
	s.mu.Lock()
	if j.State == JobQueued {
		j.State = JobCanceled
		j.Err = "canceled before start"
		j.finished = time.Now()
		delete(s.inflight, j.Hash)
		close(j.done)
		canceledNow = true
	}
	j.cancel()
	st := j.statusLocked()
	s.mu.Unlock()
	if canceledNow {
		s.count("jobs.canceled")
	}
	writeJSON(w, http.StatusOK, st)
}

// Health is the /healthz body.
type Health struct {
	Status       string  `json:"status"` // "ok" or "draining"
	Queued       int     `json:"queued"`
	Running      int     `json:"running"`
	Jobs         int     `json:"jobs"`
	CacheEntries int     `json:"cache_entries"`
	StoreEntries int     `json:"store_entries,omitempty"`
	TraceEntries int     `json:"trace_entries,omitempty"`
	Workers      int     `json:"workers"`
	QueueDepth   int     `json:"queue_depth"`
	UptimeSec    float64 `json:"uptime_sec"`
}

func (s *Server) health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := Health{
		Status: "ok", Queued: len(s.queue), Running: s.running,
		Jobs: len(s.jobs), CacheEntries: s.cache.len(),
		Workers: s.cfg.Workers, QueueDepth: cap(s.queue),
		UptimeSec: time.Since(s.start).Seconds(),
	}
	if s.draining {
		h.Status = "draining"
	}
	if s.cfg.Store != nil {
		h.StoreEntries = s.cfg.Store.Len()
	}
	if s.cfg.Traces != nil {
		h.TraceEntries = s.cfg.Traces.Len()
	}
	return h
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.health())
}

// Drain stops intake (submissions get 503; status, result and metrics
// reads keep working) and waits for every queued and running job to
// finish. If ctx expires first, in-flight jobs are canceled and Drain
// waits for the workers to acknowledge before returning ctx's error.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		return ctx.Err()
	}
}

// Close cancels all jobs and stops the workers. For tests and abrupt
// shutdown; prefer Drain.
func (s *Server) Close() {
	s.baseCancel()
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.wg.Wait()
}
