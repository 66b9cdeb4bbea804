package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"adhocradio/internal/experiment"
	"adhocradio/internal/graph"
	"adhocradio/internal/obs"
)

// SimulateRequest is the body of POST /v1/simulate.
type SimulateRequest struct {
	// Topology describes the generated network; see graph.Spec. The
	// canonical form of this spec is the compiled-graph cache key, so two
	// requests with equivalent specs share one compiled topology.
	Topology graph.Spec `json:"topology"`
	// Protocol names the algorithm, as in adhocradio.ProtocolByName (and
	// radiosim's -proto): kp, kp-paper, bgi, rr, ss, cl, inter.
	Protocol string `json:"protocol"`
	// Seed drives all protocol randomness; same request, same response.
	Seed uint64 `json:"seed"`
	// MaxSteps bounds the simulation (0 = the engine's default budget). A
	// run that exhausts it is reported with completed=false, not an error.
	MaxSteps int `json:"max_steps"`
	// TimeoutMS is the per-request deadline in milliseconds, clamped to
	// the service's MaxTimeout (0 = MaxTimeout).
	TimeoutMS int `json:"timeout_ms"`
	// IncludeInformedAt adds the per-node informed-step vector to the
	// response (omitted by default: it is O(n)).
	IncludeInformedAt bool `json:"include_informed_at"`
}

// SimulateResult is the engine outcome inside a SimulateResponse.
type SimulateResult struct {
	Completed      bool  `json:"completed"`
	BroadcastTime  int   `json:"broadcast_time"`
	StepsSimulated int   `json:"steps_simulated"`
	Transmissions  int64 `json:"transmissions"`
	Receptions     int64 `json:"receptions"`
	Collisions     int64 `json:"collisions"`
	InformedAt     []int `json:"informed_at,omitempty"`
}

// SimulateResponse is the body of a successful POST /v1/simulate. It is a
// pure function of the request: cache state is reported only in the
// X-Radiosd-Cache header, never in the body, so hit and miss responses for
// the same request are byte-identical (the e2e test gates this).
type SimulateResponse struct {
	// Topology is the canonical spec key the simulation ran on.
	Topology string `json:"topology"`
	Protocol string `json:"protocol"`
	Seed     uint64 `json:"seed"`
	// Result is the simulation outcome.
	Result SimulateResult `json:"result"`
	// Counters is this run's engine-counter window.
	Counters obs.Counters `json:"counters"`
}

// ExperimentRequest is the (optional) body of POST /v1/experiments/{id}.
type ExperimentRequest struct {
	Seed     uint64 `json:"seed"`
	Trials   int    `json:"trials"`
	Quick    bool   `json:"quick"`
	Parallel int    `json:"parallel"`
}

// errorResponse is the JSON body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP API.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	mux.HandleFunc("POST /v1/experiments/{id}", s.handleExperiment)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// timeoutFor clamps a requested millisecond deadline to the configured
// maximum; zero or negative requests get the maximum.
func (s *Service) timeoutFor(ms int) time.Duration {
	d := time.Duration(ms) * time.Millisecond
	if d <= 0 || d > s.cfg.MaxTimeout {
		return s.cfg.MaxTimeout
	}
	return d
}

// handleSimulate is the synchronous endpoint: admit, wait for the worker,
// answer with the result. Backpressure (queue full or draining) is 503 +
// Retry-After; a deadline that expires first is 504 (the worker abandons
// the run at the next step boundary via the job context).
func (s *Service) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	spec, err := req.Topology.Normalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key, err := spec.Canonical()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if _, err := protocolFor(req.Protocol); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeoutFor(req.TimeoutMS))
	j := &job{
		kind:            KindSimulate,
		ctx:             ctx,
		cancel:          cancel,
		spec:            spec,
		specKey:         key,
		protocol:        req.Protocol,
		seed:            req.Seed,
		maxSteps:        req.MaxSteps,
		includeInformed: req.IncludeInformedAt,
		done:            make(chan struct{}),
	}
	s.jobs.add(j)
	if err := s.enqueue(j); err != nil {
		cancel()
		j.finish(err)
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		// Prefer the result if it raced the deadline to the finish line.
		select {
		case <-j.done:
		default:
			writeError(w, http.StatusGatewayTimeout, ctx.Err())
			return
		}
	}
	j.mu.Lock()
	resp, jobErr, hit := j.resp, j.err, j.cacheHit
	j.mu.Unlock()
	if jobErr != nil {
		status := http.StatusInternalServerError
		if errors.Is(jobErr, context.DeadlineExceeded) || errors.Is(jobErr, context.Canceled) {
			status = http.StatusGatewayTimeout
		}
		writeError(w, status, jobErr)
		return
	}
	if hit {
		w.Header().Set("X-Radiosd-Cache", "hit")
	} else {
		w.Header().Set("X-Radiosd-Cache", "miss")
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleExperiment is the asynchronous endpoint: validate, accept with 202
// and a job ID, run in the background; GET /v1/jobs/{id} retrieves status
// and (once done) the rendered table.
func (s *Service) handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := experiment.ByID(id); err != nil {
		if errors.Is(err, experiment.ErrUnknownExperiment) {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	// The body is optional: every ExperimentRequest field has a default.
	var req ExperimentRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Experiments outlive their submitting request: the job context is
	// detached from r.Context() and cancelled only when the job finishes.
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		kind:   KindExperiment,
		ctx:    ctx,
		cancel: cancel,
		expID:  id,
		expCfg: experiment.Config{
			Seed:     req.Seed,
			Trials:   req.Trials,
			Quick:    req.Quick,
			Parallel: req.Parallel,
		},
		done: make(chan struct{}),
	}
	s.jobs.add(j)
	if err := s.enqueue(j); err != nil {
		cancel()
		j.finish(err)
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.view())
}

// handleJob serves GET /v1/jobs/{id}.
func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("service: unknown job id"))
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

// handleHealthz reports liveness; "draining" once graceful shutdown began.
func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": status})
}
