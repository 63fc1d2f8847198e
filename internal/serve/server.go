package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/metagenomics/mrmcminh/internal/faults"
	"github.com/metagenomics/mrmcminh/internal/ingest"
	"github.com/metagenomics/mrmcminh/internal/kmer"
	"github.com/metagenomics/mrmcminh/internal/metrics"
	"github.com/metagenomics/mrmcminh/internal/minhash"
)

// ServerConfig tunes the request path. Zero values take defaults.
type ServerConfig struct {
	// MaxInFlight bounds concurrently admitted submit requests; beyond
	// it the server sheds load with 503 + Retry-After instead of
	// queueing without bound (default 64).
	MaxInFlight int
	// QueueDepth is the committer's batch queue capacity. A full queue
	// sheds HTTP submits (503) and backpressures pull ingesters
	// (blocking send) — the two intake disciplines (default 16).
	QueueDepth int
	// RequestTimeout caps a submit request's time in the admission +
	// commit pipeline (default 10s). Exceeding it returns 503 and
	// counts a deadline miss; the batch itself may still commit.
	RequestTimeout time.Duration
	// MaxBatch bounds reads per submit request (default 1024).
	MaxBatch int
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1024
	}
	return c
}

// maxReadBytes caps one submitted read: its ID plus its sequence. A
// submit body may hold at most MaxBatch times this many bytes, JSON
// framing included, so the body limit follows from the batch limit.
const maxReadBytes = 64 << 10

// ServerStats extends the state counters with request-path counters.
// Accepted counts only non-duplicate reads admitted over HTTP, so for a
// server fed exclusively by HTTP submits, accepted == acked.
type ServerStats struct {
	Stats
	Accepted         int64 `json:"accepted"`
	Shed             int64 `json:"shed"`
	TooLarge         int64 `json:"too_large"` // submits rejected with 413
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	WriteErrors      int64 `json:"write_errors"`
	InFlight         int64 `json:"in_flight"`
	Draining         bool  `json:"draining"`
}

type commitResult struct {
	acks []Ack
	err  error
}

type commitReq struct {
	batch []ingest.Sketched
	done  chan commitResult
}

// Server owns the single committer goroutine and the HTTP surface. All
// mutation funnels through commitCh, so the state's single-writer
// contract holds no matter how many intake paths run concurrently.
type Server struct {
	st       *State
	cfg      ServerConfig
	sketcher *minhash.Sketcher

	commitCh      chan *commitReq
	committerDone chan struct{}

	sendMu   sync.RWMutex // draining flag vs channel close
	draining bool

	inFlight         atomic.Int64
	accepted         atomic.Int64
	shed             atomic.Int64
	tooLarge         atomic.Int64
	deadlineExceeded atomic.Int64
	writeErrors      atomic.Int64
	fatal            atomic.Pointer[fatalErr]

	// Latency measures submit requests end to end (admission through
	// durable ack), the histogram behind /v1/stats and BENCH_serving.
	Latency metrics.LatencyHistogram
}

type fatalErr struct{ err error }

// NewServer wraps st and starts the committer.
func NewServer(st *State, cfg ServerConfig) (*Server, error) {
	cfg = cfg.withDefaults()
	sk, err := minhash.NewSketcher(st.params.NumHashes, st.params.K, st.params.Seed)
	if err != nil {
		return nil, err
	}
	s := &Server{
		st:            st,
		cfg:           cfg,
		sketcher:      sk,
		commitCh:      make(chan *commitReq, cfg.QueueDepth),
		committerDone: make(chan struct{}),
	}
	go s.committer()
	return s, nil
}

// committer is the single goroutine allowed to mutate state. A fatal
// commit error (injected service crash, disk failure) is latched; every
// queued and future request fails fast with it.
func (s *Server) committer() {
	defer close(s.committerDone)
	for req := range s.commitCh {
		if f := s.fatal.Load(); f != nil {
			req.done <- commitResult{err: f.err}
			continue
		}
		acks, err := s.st.CommitBatch(req.batch)
		if err != nil {
			s.fatal.Store(&fatalErr{err: err})
		}
		req.done <- commitResult{acks: acks, err: err}
	}
}

// Fatal returns the latched fatal commit error, if any.
func (s *Server) Fatal() error {
	if f := s.fatal.Load(); f != nil {
		return f.err
	}
	return nil
}

// errDraining rejects intake during shutdown.
var errDraining = errors.New("serve: draining")

// enqueue hands a batch to the committer. block selects the discipline:
// pull ingesters block (backpressure), HTTP submits don't (load shed).
func (s *Server) enqueue(ctx context.Context, batch []ingest.Sketched, block bool) (*commitReq, error) {
	req := &commitReq{batch: batch, done: make(chan commitResult, 1)}
	s.sendMu.RLock()
	defer s.sendMu.RUnlock()
	if s.draining {
		return nil, errDraining
	}
	if block {
		select {
		case s.commitCh <- req:
			return req, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	select {
	case s.commitCh <- req:
		return req, nil
	default:
		return nil, errShed
	}
}

var errShed = errors.New("serve: commit queue full")

// Sink returns the ingest.Sink pull sources commit through: blocking
// enqueue (the bounded queue IS the backpressure), then wait for the
// durable ack.
func (s *Server) Sink() ingest.Sink {
	return ingest.SinkFunc(func(ctx context.Context, batch []ingest.Sketched) error {
		req, err := s.enqueue(ctx, batch, true)
		if err != nil {
			return err
		}
		select {
		case res := <-req.done:
			return res.err
		case <-ctx.Done():
			return ctx.Err()
		}
	})
}

// Drain stops intake, waits for the committer to finish every queued
// batch, then checkpoints. Every read acked before Drain returns is in
// the snapshot. Safe to call once.
func (s *Server) Drain() error {
	s.sendMu.Lock()
	if s.draining {
		s.sendMu.Unlock()
		return errors.New("serve: already draining")
	}
	s.draining = true
	close(s.commitCh)
	s.sendMu.Unlock()
	<-s.committerDone
	if err := s.Fatal(); err != nil {
		return err
	}
	return s.st.Checkpoint()
}

// ---- HTTP surface ----

type submitRead struct {
	ID  string `json:"id"`
	Seq string `json:"seq"`
}

type submitRequest struct {
	Reads []submitRead `json:"reads"`
}

type submitResponse struct {
	Results []Ack `json:"results"`
}

// writeJSON encodes the response body. An encode failure after the
// status line is gone cannot be reported to the client, but it must not
// vanish either: log it and count it (surfaced as write_errors in
// /v1/stats).
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.writeErrors.Add(1)
		log.Printf("serve: writing %T response: %v", v, err)
	}
}

// writeBody streams pre-encoded bytes with the same log-and-count
// discipline.
func (s *Server) writeBody(w http.ResponseWriter, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	if _, err := w.Write(body); err != nil {
		s.writeErrors.Add(1)
		log.Printf("serve: writing %s response: %v", contentType, err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	s.writeJSON(w, status, map[string]string{"error": msg})
}

// shedResponse is the load-shedding reply: 503 with a Retry-After so
// well-behaved clients back off instead of hammering.
func (s *Server) shedResponse(w http.ResponseWriter, msg string) {
	s.shed.Add(1)
	w.Header().Set("Retry-After", "1")
	s.writeError(w, http.StatusServiceUnavailable, msg)
}

// tooLargeResponse rejects a submit that exceeds a size limit.
func (s *Server) tooLargeResponse(w http.ResponseWriter, msg string) {
	s.tooLarge.Add(1)
	s.writeError(w, http.StatusRequestEntityTooLarge, msg)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if f := s.Fatal(); f != nil {
		s.writeError(w, http.StatusServiceUnavailable, f.Error())
		return
	}
	// Admission control before reading the body: a saturated server
	// sheds cheaply.
	if n := s.inFlight.Add(1); n > int64(s.cfg.MaxInFlight) {
		s.inFlight.Add(-1)
		s.shedResponse(w, "too many in-flight submissions")
		return
	}
	defer s.inFlight.Add(-1)

	var req submitRequest
	limit := int64(s.cfg.MaxBatch) * maxReadBytes
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(&req); err != nil {
		if errors.As(err, new(*http.MaxBytesError)) {
			s.tooLargeResponse(w, fmt.Sprintf("body exceeds %d bytes", limit))
			return
		}
		s.writeError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	if len(req.Reads) == 0 {
		s.writeError(w, http.StatusBadRequest, "no reads")
		return
	}
	if len(req.Reads) > s.cfg.MaxBatch {
		s.tooLargeResponse(w, fmt.Sprintf("batch of %d exceeds limit %d", len(req.Reads), s.cfg.MaxBatch))
		return
	}
	for _, rd := range req.Reads {
		if rd.ID == "" {
			s.writeError(w, http.StatusBadRequest, "read with empty id")
			return
		}
		if len(rd.ID)+len(rd.Seq) > maxReadBytes {
			s.tooLargeResponse(w, fmt.Sprintf("a read exceeds %d bytes", maxReadBytes))
			return
		}
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	// Sketch inline on the request goroutine: the CPU-heavy part scales
	// with HTTP concurrency, while the committer stays a pure writer.
	ex := &kmer.Extractor{K: s.st.params.K, Canonical: s.st.params.Canonical}
	var kms []uint64
	batch := make([]ingest.Sketched, len(req.Reads))
	for i, rd := range req.Reads {
		kms = ex.SliceInto(kms[:0], []byte(rd.Seq))
		batch[i] = ingest.Sketched{ID: rd.ID, Sig: s.sketcher.SketchInto(nil, kms)}
	}

	cr, err := s.enqueue(ctx, batch, false)
	switch {
	case err == errShed:
		s.shedResponse(w, "commit queue full")
		return
	case err == errDraining:
		s.writeError(w, http.StatusServiceUnavailable, "draining")
		return
	case err != nil:
		s.writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	select {
	case res := <-cr.done:
		if res.err != nil {
			if !errors.As(res.err, new(*faults.ServiceCrashError)) {
				s.writeError(w, http.StatusInternalServerError, res.err.Error())
				return
			}
			// An injected crash still acked the batch durably first.
		}
		// Count only non-duplicate acks: accepted tracks reads admitted
		// into the corpus, so accepted == acked for HTTP-only intake
		// (duplicates are reported separately).
		var fresh int64
		for _, a := range res.acks {
			if !a.Duplicate {
				fresh++
			}
		}
		s.accepted.Add(fresh)
		s.Latency.Observe(time.Since(start))
		s.writeJSON(w, http.StatusOK, submitResponse{Results: res.acks})
	case <-ctx.Done():
		s.deadlineExceeded.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, "deadline exceeded waiting for commit")
	}
}

func (s *Server) handleRead(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	info, ok := s.st.Assignment(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown read id")
		return
	}
	s.writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleClusters(w http.ResponseWriter, r *http.Request) {
	// The body is memoized on the pinned view: encoded once per epoch,
	// shared by every request until the next commit publishes.
	s.writeBody(w, "application/json", s.st.loadView().clustersBody())
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	label, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "cluster id must be an integer")
		return
	}
	info, ok := s.st.Cluster(label)
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown cluster")
		return
	}
	s.writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleDiversity(w http.ResponseWriter, r *http.Request) {
	s.writeBody(w, "application/json", s.st.loadView().diversityBody())
}

// ServerStatsSnapshot collects the full counter set.
func (s *Server) ServerStatsSnapshot() ServerStats {
	s.sendMu.RLock()
	draining := s.draining
	s.sendMu.RUnlock()
	return ServerStats{
		Stats:            s.st.Stats(),
		Accepted:         s.accepted.Load(),
		Shed:             s.shed.Load(),
		TooLarge:         s.tooLarge.Load(),
		DeadlineExceeded: s.deadlineExceeded.Load(),
		WriteErrors:      s.writeErrors.Load(),
		InFlight:         s.inFlight.Load(),
		Draining:         draining,
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	stats := s.ServerStatsSnapshot()
	s.writeJSON(w, http.StatusOK, map[string]any{
		"stats":  stats,
		"p50_ms": float64(s.Latency.Quantile(0.50)) / float64(time.Millisecond),
		"p99_ms": float64(s.Latency.Quantile(0.99)) / float64(time.Millisecond),
	})
}

func (s *Server) handleAssignments(w http.ResponseWriter, r *http.Request) {
	// Pin one view before the first byte goes out: every row resolves
	// from immutable arrays, so resolution cannot fail mid-stream. The
	// only possible error is the client's connection dying — never
	// append error text to a 200 body (this TSV is the exact artifact
	// the chaos harness compares byte-for-byte), just log and count.
	v := s.st.loadView()
	w.Header().Set("Content-Type", "text/tab-separated-values")
	if err := v.dumpTSV(w); err != nil {
		s.writeErrors.Add(1)
		log.Printf("serve: streaming assignments dump: %v", err)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if err := s.Fatal(); err != nil {
		s.writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.sendMu.RLock()
	draining := s.draining
	s.sendMu.RUnlock()
	if draining {
		s.writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if err := s.Fatal(); err != nil {
		s.writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// Mux wires every endpoint (method + wildcard patterns).
func (s *Server) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/reads", s.handleSubmit)
	mux.HandleFunc("GET /v1/reads/{id}", s.handleRead)
	mux.HandleFunc("GET /v1/clusters", s.handleClusters)
	mux.HandleFunc("GET /v1/clusters/{id}", s.handleCluster)
	mux.HandleFunc("GET /v1/diversity", s.handleDiversity)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/assignments", s.handleAssignments)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// NewHTTPServer wraps h in an http.Server with the timeouts a
// public-facing intake server needs. Without a read deadline, a
// slowloris client that trickles header or body bytes holds its
// connection — and, once the handler starts, an admission slot —
// indefinitely, wedging intake for everyone else. readTimeout caps the
// whole request read (headers + body); 0 takes the 30s default.
// WriteTimeout stays unset on purpose: /v1/assignments streams the
// whole corpus and /debug/pprof/profile runs for 30s by design.
func NewHTTPServer(h http.Handler, readTimeout time.Duration) *http.Server {
	if readTimeout <= 0 {
		readTimeout = 30 * time.Second
	}
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       2 * time.Minute,
	}
}
